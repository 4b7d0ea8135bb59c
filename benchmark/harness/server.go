// Package harness runs one workload against the benchmark server in its own
// process: it starts and stops cmd/benchserver, swaps model versions through
// the admin endpoint, walks the run's phases with the gen loops, and turns
// the samples into the end-to-end metrics plus the per-layer metrics that
// can only be seen from outside (server runtime counters, generator checks).
package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"intellitag/benchmark/gen"
	"intellitag/benchmark/sysstat"
)

const (
	startTimeout = 120 * time.Second
	stopTimeout  = 10 * time.Second
)

// server is a running benchserver process.
type server struct {
	cmd  *exec.Cmd
	addr string // host:port
	exit chan error
}

// startServer execs the benchmark server and waits for /healthz to answer
// 200. The returned duration runs from just before exec to that answer: the
// set-up time a deployment waits for.
func startServer(bin string, args []string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, fmt.Errorf("harness: %w", err)
	}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("harness: start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exit: make(chan error, 1)}
	line := make(chan string, 1)
	//lint:ignore nakedgo reads the child's stdout until it closes, which the child's exit guarantees; Wait follows it
	go func() {
		br := bufio.NewReader(out)
		first, _ := br.ReadString('\n')
		line <- first
		_, _ = io.Copy(io.Discard, br) // the server prints nothing more; drain so it can never block on a full pipe
		s.exit <- cmd.Wait()
	}()
	select {
	case first := <-line:
		addr, ok := strings.CutPrefix(strings.TrimSpace(first), "listening ")
		if !ok {
			_ = s.stop()
			return nil, 0, fmt.Errorf("harness: %s did not announce its address (printed %q)", bin, first)
		}
		s.addr = addr
	case <-time.After(startTimeout):
		_ = s.stop()
		return nil, 0, fmt.Errorf("harness: %s did not start listening within %s", bin, startTimeout)
	}
	resp, err := http.Get("http://" + s.addr + "/healthz")
	if err != nil {
		_ = s.stop()
		return nil, 0, fmt.Errorf("harness: healthz: %w", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_ = s.stop()
		return nil, 0, fmt.Errorf("harness: healthz answered %d", resp.StatusCode)
	}
	return s, time.Since(begin), nil
}

// stop ends the process and waits for it.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only when the process has already gone
	select {
	case <-s.exit:
		return nil
	case <-time.After(stopTimeout):
		_ = s.cmd.Process.Kill()
		<-s.exit
		return fmt.Errorf("harness: server ignored SIGTERM for %s and was killed", stopTimeout)
	}
}

// runtimeStat reads the server's resource counters.
func (s *server) runtimeStat() (sysstat.Stat, error) {
	var st sysstat.Stat
	resp, err := http.Get("http://" + s.addr + "/bench/runtime")
	if err != nil {
		return st, fmt.Errorf("harness: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	_ = resp.Body.Close() // read to the end or abandoned; nothing to flush
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("harness: /bench/runtime answered %d", resp.StatusCode)
	}
	if err != nil {
		return st, fmt.Errorf("harness: /bench/runtime: %w", err)
	}
	return st, nil
}

// swapper alternates the server between two snapshot versions through
// POST /admin/swap, one swap at a time, and keeps each swap's wall time.
type swapper struct {
	addr     string
	versions [2]string     // swapped to in turn, starting with the first
	period   time.Duration // swap i starts i periods after the first, or as soon as swap i-1 is done
	limit    int           // stop by itself after this many swaps; 0 means run until stopped

	quit chan struct{}
	done chan struct{}
	durs []float64 // seconds
	err  error
}

func startSwapper(addr string, versions [2]string, period time.Duration, limit int) *swapper {
	sw := &swapper{addr: addr, versions: versions, period: period, limit: limit,
		quit: make(chan struct{}), done: make(chan struct{})}
	//lint:ignore nakedgo the swap loop runs beside the request loops by design; stop closes quit and waits on done
	go sw.loop()
	return sw
}

func (sw *swapper) loop() {
	defer close(sw.done)
	// The swap goes over a polling connection like the requests do: the
	// generator's one processor is never idle, so a blocked net/http call
	// would learn of the answer only when the runtime next polls the network.
	conn, err := gen.Dial(sw.addr)
	if err != nil {
		sw.err = fmt.Errorf("harness: swap: %w", err)
		return
	}
	defer conn.Close()
	first := time.Now()
	for i := 0; sw.limit == 0 || i < sw.limit; i++ {
		body, _ := json.Marshal(map[string]string{"version": sw.versions[i%2]}) // a string map always encodes
		begin := time.Now()
		status, msg, err := conn.Do("/admin/swap", body)
		if err != nil {
			sw.err = fmt.Errorf("harness: swap: %w", err)
			return
		}
		if status != http.StatusOK {
			sw.err = fmt.Errorf("harness: swap answered %d: %.200s", status, msg)
			return
		}
		sw.durs = append(sw.durs, time.Since(begin).Seconds())
		select {
		case <-sw.quit:
			return
		case <-time.After(time.Until(first.Add(time.Duration(i+1) * sw.period))):
		}
	}
}

// finished reports whether the loop has ended by itself.
func (sw *swapper) finished() bool {
	select {
	case <-sw.done:
		return true
	default:
		return false
	}
}

// stop lets the swap in flight complete, ends the loop and returns the swap
// times.
func (sw *swapper) stop() ([]float64, error) {
	close(sw.quit)
	<-sw.done
	return sw.durs, sw.err
}
