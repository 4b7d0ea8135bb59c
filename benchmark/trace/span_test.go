package trace

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// request 0:  http 100 -> handler 70 -> engine 50 -> {ann 10, score 25}
	// request 1:  http 40  -> handler 45 (measured slower than its parent)
	var r Recorder
	root := r.Add(0, "http", 0, 100, -1)
	handler := r.Add(0, "serving.handler", 200, 270, root)
	engine := r.Add(0, "serving.engine", 300, 350, handler)
	r.Add(0, "ann.search", 400, 410, engine)
	r.Add(0, "core.score", 420, 445, engine)
	root1 := r.Add(1, "http", 500, 540, -1)
	r.Add(1, "serving.handler", 600, 645, root1)

	want := []int64{30, 20, 15, 10, 25, -5, 45}
	got := SelfTimes(r.Spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, r.Spans[i].Name, got[i], want[i])
		}
	}
	// Self times of a request always add up to its root's duration.
	sums := map[int]int64{}
	for i, s := range r.Spans {
		sums[s.Req] += got[i]
	}
	if sums[0] != 100 || sums[1] != 40 {
		t.Errorf("self times sum to %d and %d, want the roots' 100 and 40", sums[0], sums[1])
	}
}

func TestWriteJSONL(t *testing.T) {
	var r Recorder
	root := r.Add(3, "http", 10, 90, -1)
	r.Add(3, "serving.handler", 100, 150, root)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.WriteJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, s)
	}
	if len(back) != 2 || back[0] != r.Spans[0] || back[1] != r.Spans[1] {
		t.Fatalf("read back %+v, wrote %+v", back, r.Spans)
	}
}
