package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// pollInterval is the joined dist worker's idle wait between lease
// pulls. A 10-job lease runs for several milliseconds, so 2 ms keeps the
// number about lease handling rather than sleep.
const pollInterval = 2 * time.Millisecond

// stopBudget is how long stop waits for a graceful exit before killing.
const stopBudget = 10 * time.Second

// server is one safesensed process on loopback, joined to itself as a
// distributed-campaign worker, with its debug listener for memstats.
type server struct {
	base   string // public listener, http://127.0.0.1:port
	debug  string // -pprof-addr listener
	cmd    *exec.Cmd
	stderr *tailWriter
	exited chan struct{}
}

// freePorts asks the kernel for n distinct unused loopback ports,
// holding every listener open until all n are chosen.
func freePorts(n int) ([]string, error) {
	var ports []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, strconv.Itoa(l.Addr().(*net.TCPAddr).Port))
	}
	return ports, nil
}

// startServer execs bin on two fresh loopback ports and waits until
// /healthz and the debug listener answer, returning the time from exec
// to /healthz answering. On any
// failure the process is stopped and the error carries its stderr tail.
func startServer(ctx context.Context, bin string, gomaxprocs int) (*server, time.Duration, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, 0, fmt.Errorf("safesensed binary: %w (run through perfbench/run.sh, which builds it)", err)
	}
	ports, err := freePorts(2)
	if err != nil {
		return nil, 0, err
	}
	pub, dbg := ports[0], ports[1]
	s := &server{
		base:   "http://127.0.0.1:" + pub,
		debug:  "http://127.0.0.1:" + dbg,
		stderr: &tailWriter{max: 8 << 10},
		exited: make(chan struct{}),
	}
	s.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:"+pub,
		"-pprof-addr", "127.0.0.1:"+dbg,
		"-join", s.base,
		"-worker-id", "perfbench-worker",
		"-poll-interval", pollInterval.String(),
	)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	s.cmd.Stdout = s.stderr
	s.cmd.Stderr = s.stderr
	killWithParent(s.cmd)
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting safesensed: %w", err)
	}
	// Wait returns once the process has exited; stop guarantees that.
	go func() {
		_ = s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitOK(ctx, s.base+"/healthz", 20*time.Second); err != nil {
		s.stop()
		return nil, 0, s.failure(err)
	}
	d := time.Since(t0)
	// The debug listener starts on its own goroutine and may trail
	// /healthz; it is waited for outside the set-up time.
	if err := s.waitOK(ctx, s.debug+"/debug/vars", 20*time.Second); err != nil {
		s.stop()
		return nil, 0, s.failure(err)
	}
	return s, d, nil
}

// waitOK polls url until it answers 200.
func (s *server) waitOK(ctx context.Context, url string, limit time.Duration) error {
	// No keep-alive: a connection left open here would hold up the
	// server's graceful shutdown.
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("safesensed exited before %s answered", url)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := hc.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not answer 200 within %v", url, limit)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// failure attaches the server's stderr tail to err.
func (s *server) failure(err error) error {
	return fmt.Errorf("%w\n--- safesensed stderr tail ---\n%s", err, s.stderr.String())
}

// stop sends SIGTERM, waits up to stopBudget for a graceful exit, then
// kills the process; it returns once the process has exited. Callers
// close their idle connections first: net/http's Shutdown waits up to
// 5 s on a connection that was accepted but never sent a request.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(stopBudget):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// memstats is the part of the server's /debug/vars memstats the
// benchmark reads.
type memstats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint32
}

func (s *server) memstats(ctx context.Context, hc *http.Client) (memstats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.debug+"/debug/vars", nil)
	if err != nil {
		return memstats{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return memstats{}, fmt.Errorf("reading /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return memstats{}, fmt.Errorf("reading /debug/vars: %w", err)
	}
	return parseMemstats(data)
}

// parseMemstats extracts the memstats variable from a /debug/vars
// document. expvar writes one "name": value pair per line; the line is
// parsed on its own because the document as a whole is not always valid
// JSON (safesensed's safesense_metrics variable can render empty).
func parseMemstats(vars []byte) (memstats, error) {
	for _, line := range bytes.Split(vars, []byte("\n")) {
		v, ok := bytes.CutPrefix(line, []byte(`"memstats": `))
		if !ok {
			continue
		}
		var ms memstats
		if err := json.Unmarshal(bytes.TrimSuffix(v, []byte(",")), &ms); err != nil {
			return memstats{}, fmt.Errorf("decoding /debug/vars memstats: %w", err)
		}
		return ms, nil
	}
	return memstats{}, fmt.Errorf("/debug/vars has no memstats variable")
}

// tailWriter keeps the last max bytes written to it.
type tailWriter struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (w *tailWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if over := len(w.buf) - w.max; over > 0 {
		w.buf = append(w.buf[:0], w.buf[over:]...)
	}
	return len(p), nil
}

func (w *tailWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf)
}
