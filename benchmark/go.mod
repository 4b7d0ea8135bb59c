module intellitag/benchmark

go 1.22

require intellitag v0.0.0

replace intellitag => ../
