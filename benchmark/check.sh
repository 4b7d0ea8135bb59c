#!/usr/bin/env bash
# benchmark/ is a Go module of its own (the benchmark contract asks for its
# own build file), so `go vet ./...`, `go test ./...` and `make lint` at the
# repository root do not reach it. This runs the same checks on it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
export GOWORK=off GOTOOLCHAIN=local
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: $unformatted" >&2
	exit 1
fi
go vet ./...
go test "$@" ./...
go run intellitag/cmd/intellilint ./...
