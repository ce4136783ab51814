package main

import (
	"context"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServer compiles cmd/safesensed from the enclosing checkout.
func buildServer(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs safesensed")
	}
	bin := filepath.Join(t.TempDir(), "safesensed")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/safesensed")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building safesensed: %v\n%s", err, out)
	}
	return bin
}

func TestServerLifecycleLeaksNoProcessOrPort(t *testing.T) {
	bin := buildServer(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		srv, d, err := startServer(ctx, bin, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Errorf("start %d: non-positive set-up time %v", i, d)
		}
		hc := newHTTPClient()
		if _, err := srv.memstats(ctx, hc); err != nil {
			t.Errorf("start %d: %v", i, err)
		}
		hc.CloseIdleConnections()
		t0 := time.Now()
		srv.stop()
		if d := time.Since(t0); d > 5*time.Second {
			t.Errorf("start %d: stop took %v", i, d)
		}
		if srv.cmd.ProcessState == nil {
			t.Fatalf("start %d: process not reaped after stop", i)
		}
		for _, addr := range []string{srv.base, srv.debug} {
			l, err := net.Listen("tcp", strings.TrimPrefix(addr, "http://"))
			if err != nil {
				t.Errorf("start %d: %s still bound after stop: %v", i, addr, err)
				continue
			}
			l.Close()
		}
	}
}

func TestServerFailureCarriesStderrTail(t *testing.T) {
	// A binary that exits at once: the start must fail, name the exit
	// and attach what the process printed.
	bin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) on this system")
	}
	_, _, err = startServer(context.Background(), bin, 1)
	if err == nil || !strings.Contains(err.Error(), "exited before") {
		t.Fatalf("got %v", err)
	}
	if !strings.Contains(err.Error(), "stderr tail") {
		t.Errorf("failure %q lacks the stderr tail", err)
	}
}
