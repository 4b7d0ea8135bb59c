package gen

import (
	"runtime"
	"sync"
	"time"

	"intellitag/benchmark/wl"
)

// Worker drives one connection: its own request stream, answer checker and
// latency samples. A worker lives across the phases of a run, so session
// state on the server carries over from warm-up into the measured phases.
type Worker struct {
	conn   *Conn
	stream *wl.Stream
	check  *wl.Checker
	body   []byte

	// Samples of the current phase, in microseconds; Reset clears them.
	Lat     []float64 // successful requests, from send (closed) or due time (paced)
	Late    []float64 // paced: how long a request left after it was due and the connection free
	Sent    int
	OK      int
	Failed  int
	InLimit int      // paced: successes that finished within the limit of due time
	Errs    []string // the first few failure messages
}

// NewWorker connects a worker to addr.
func NewWorker(addr string, stream *wl.Stream, check *wl.Checker) (*Worker, error) {
	conn, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Worker{conn: conn, stream: stream, check: check}, nil
}

// Close closes the worker's connection.
func (w *Worker) Close() { w.conn.Close() }

// Checker returns the worker's answer checker (hit_at_5 counts).
func (w *Worker) Checker() *wl.Checker { return w.check }

// Reset clears the phase samples and keeps their storage.
func (w *Worker) Reset() {
	w.Lat, w.Late, w.Errs = w.Lat[:0], w.Late[:0], w.Errs[:0]
	w.Sent, w.OK, w.Failed, w.InLimit = 0, 0, 0, 0
}

const maxErrs = 5

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// one sends the stream's next request, timed from start, and checks the
// answer. A transport error, a timeout, a status >= 400 and an answer that
// fails validation are all failures.
func (w *Worker) one(start time.Time, limit time.Duration) {
	r := w.stream.Next()
	w.body = r.AppendBody(w.body[:0])
	status, resp, err := w.conn.Do(r.Path(), w.body)
	lat := time.Since(start)
	w.Sent++
	if err == nil {
		err = w.check.Check(r, status, resp)
	}
	if err != nil {
		w.Failed++
		if len(w.Errs) < maxErrs {
			w.Errs = append(w.Errs, err.Error())
		}
		return
	}
	w.OK++
	w.Lat = append(w.Lat, us(lat))
	if lat <= limit {
		w.InLimit++
	}
}

// Closed sends back to back until the deadline: the next request leaves when
// the previous answer has been checked, so a slow server receives less load
// and latency is service time.
func (w *Worker) Closed(deadline time.Time) {
	for time.Now().Before(deadline) {
		w.one(time.Now(), 0)
	}
}

// Paced offers rate requests per second from start until the deadline, on a
// fixed schedule that does not slow down when the server does. Request i is
// due at start + i/rate and is timed from that instant; when the previous
// answer is still outstanding at a due time the request leaves as soon as it
// arrives and the wait counts against it, as it would in a queue in front of
// the server. Late records the generator's own share of any delay: how long
// after both its due time and the previous answer a request was sent. The
// worker waits for a due time by watching the clock, never by sleeping (a
// sleeping Go process's timers fire up to a millisecond late, which would be
// charged to the server); it has nothing in flight while it waits and yields
// to the generator's other goroutines on every look.
func (w *Worker) Paced(start, deadline time.Time, rate float64, limit time.Duration) {
	interval := float64(time.Second) / rate
	free := start // when the previous answer had been checked
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if !due.Before(deadline) {
			return
		}
		now := time.Now()
		for now.Before(due) {
			runtime.Gosched()
			now = time.Now()
		}
		if free.After(due) {
			w.Late = append(w.Late, us(now.Sub(free)))
		} else {
			w.Late = append(w.Late, us(now.Sub(due)))
		}
		w.one(due, limit)
		free = time.Now()
	}
}

// RunClosed runs the workers' closed loops side by side for d and returns the
// elapsed wall time.
func RunClosed(workers []*Worker, d time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range workers[1:] {
		wg.Add(1)
		//lint:ignore nakedgo one goroutine per connection is the closed-loop workload; all are waited for below
		go func(w *Worker) {
			defer wg.Done()
			w.Closed(deadline)
		}(w)
	}
	workers[0].Closed(deadline)
	wg.Wait()
	return time.Since(start)
}
