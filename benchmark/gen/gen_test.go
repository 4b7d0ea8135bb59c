package gen

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"intellitag/benchmark/prep"
	"intellitag/benchmark/stat"
	"intellitag/benchmark/wl"
	"intellitag/internal/synth"
)

func TestConnFramings(t *testing.T) {
	big := strings.Repeat("x", 70_000) // past the reader's buffer
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/echo": // Content-Length
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "%s %s", r.Method, body)
		case "/chunked":
			for i := 0; i < 3; i++ {
				fmt.Fprintf(w, "part%d;", i)
				w.(http.Flusher).Flush()
			}
		case "/big":
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			_, _ = io.WriteString(w, big)
		case "/missing":
			http.Error(w, "no such thing", http.StatusNotFound)
		}
	}))
	defer srv.Close()
	c, err := Dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cases := []struct {
		path, body string
		status     int
		want       string
	}{
		{"/echo", `{"a":1}`, 200, `POST {"a":1}`},
		{"/big", "", 200, big},
		{"/missing", "", 404, "no such thing\n"},
		{"/echo", "again", 200, "POST again"},
	}
	for _, tc := range cases {
		status, body, err := c.Do(tc.path, []byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if status != tc.status || string(body) != tc.want {
			t.Errorf("%s: %d %.40q, want %d %.40q", tc.path, status, body, tc.status, tc.want)
		}
	}
	// The benchmark server never chunks an answer; one that is chunked is an
	// error, and the call after it starts on a fresh connection.
	if _, _, err := c.Do("/chunked", nil); err == nil {
		t.Error("a chunked answer must be an error")
	}
	if status, body, err := c.Do("/echo", []byte("after")); err != nil || status != 200 || string(body) != "POST after" {
		t.Errorf("after a chunked answer: %d %q %v", status, body, err)
	}
}

func TestConnErrorThenReconnect(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/hangup" {
			conn, _, _ := w.(http.Hijacker).Hijack()
			_ = conn.Close()
			return
		}
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	c, err := Dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Do("/hangup", nil); err == nil {
		t.Fatal("a dropped connection must be an error")
	}
	if status, body, err := c.Do("/fine", nil); err != nil || status != 200 || string(body) != "ok" {
		t.Fatalf("after an error the next call reconnects: %d %q %v", status, body, err)
	}
}

// panelServer answers every request with a valid empty panel after delay().
func panelServer(delay func() time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		time.Sleep(delay())
		_, _ = io.WriteString(w, `{"tags":[],"found":false}`)
	}))
}

func testWorker(t *testing.T, addr string) *Worker {
	t.Helper()
	world := wl.NewWorld(synth.Generate(prep.SmallConfig().World))
	spec, _ := wl.Find("session_mix")
	stream, err := wl.NewStream(spec, world, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := NewWorker(strings.TrimPrefix(addr, "http://"), stream, wl.NewChecker(world))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wk.Close)
	return wk
}

// A server that stalls once must be charged for the requests that were due
// while it stalled: timed from their due times, they are late too. A
// generator that timed from the send instant would report only one slow
// request.
func TestPacedChargesFromDueTime(t *testing.T) {
	var mu sync.Mutex
	n := 0
	srv := panelServer(func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n == 20 {
			return 100 * time.Millisecond
		}
		return 0
	})
	defer srv.Close()
	w := testWorker(t, srv.URL)
	start := time.Now()
	const rate, limit = 1000.0, 20 * time.Millisecond
	w.Paced(start, start.Add(300*time.Millisecond), rate, limit)
	if w.Failed != 0 || w.Sent != 300 {
		t.Fatalf("sent %d failed %d (%v), want 300 and 0", w.Sent, w.Failed, w.Errs)
	}
	slow := 0
	for _, l := range w.Lat {
		if l > float64(limit/time.Microsecond) {
			slow++
		}
	}
	// The stall covers about 100 due times; those past the first 20 ms of it
	// miss the limit, and so does the backlog while it drains (against a test
	// server in this very process, which can take the rest of the run).
	if slow < 50 {
		t.Errorf("%d requests over the limit after a 100 ms stall at 1000/s, want 80 and the backlog's drain", slow)
	}
	if w.InLimit != w.OK-slow {
		t.Errorf("InLimit %d, want %d", w.InLimit, w.OK-slow)
	}
	// The generator's own lateness stays small even though requests left
	// late: charged to the generator, the stall would put a third of them
	// tens of milliseconds late.
	if p90 := stat.Percentile(stat.Sorted(w.Late), 0.9); p90 > 5000 {
		t.Errorf("generator lateness p90 %.0f us: the stall was charged to the generator", p90)
	}
}

func TestClosedLoopCountsAndReset(t *testing.T) {
	srv := panelServer(func() time.Duration { return 0 })
	defer srv.Close()
	a, b := testWorker(t, srv.URL), testWorker(t, srv.URL)
	took := RunClosed([]*Worker{a, b}, 100*time.Millisecond)
	if took < 100*time.Millisecond || took > 2*time.Second {
		t.Errorf("phase took %v", took)
	}
	for _, w := range []*Worker{a, b} {
		if w.Sent == 0 || w.OK != w.Sent || len(w.Lat) != w.OK {
			t.Errorf("sent %d ok %d samples %d", w.Sent, w.OK, len(w.Lat))
		}
		w.Reset()
		if w.Sent != 0 || len(w.Lat) != 0 {
			t.Error("Reset left samples behind")
		}
	}
}

func TestFailuresAreCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		// A panel with a tag no tenant owns.
		_, _ = io.WriteString(w, `{"tags":[{"tag":999999,"score":1}],"found":false}`)
	}))
	defer srv.Close()
	w := testWorker(t, srv.URL)
	w.Closed(time.Now().Add(30 * time.Millisecond))
	if w.Sent == 0 || w.OK >= w.Sent || w.Failed == 0 || len(w.Errs) == 0 {
		t.Errorf("sent %d ok %d failed %d errs %v: invalid panels must fail", w.Sent, w.OK, w.Failed, w.Errs)
	}
}
