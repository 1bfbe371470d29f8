package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the programs under test, built from source in the checkout.
type binaries struct {
	serve string // cmd/ligra-serve; empty when no serve-* workload was selected
}

// buildBinaries compiles cmd/ligra-serve into .bench_build/ at the
// checkout root. `go build` is rerun on every invocation: when nothing
// changed it is a cache hit, and a stale binary can never be measured.
// Build time is not part of setup_s.
func buildBinaries(root string, workloads []string) (*binaries, error) {
	b := &binaries{}
	needServe := false
	for _, w := range workloads {
		needServe = needServe || strings.HasPrefix(w, "serve-")
	}
	if !needServe {
		return b, nil
	}
	b.serve = filepath.Join(root, ".bench_build", "ligra-serve")
	cmd := exec.Command("go", "build", "-o", b.serve, "./cmd/ligra-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building ligra-serve: %v\n%s", err, out)
	}
	return b, nil
}

// child is one ligra-serve subprocess.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	exited  chan struct{} // closed once Wait has returned
}

var (
	childrenMu sync.Mutex
	children   = map[*child]bool{}
)

// startServer launches the real binary with its shipping defaults: the
// listen address is the only flag, so what is measured is what a user who
// types `ligra-serve` gets. Its stderr (one log line per request) goes
// straight to a file; it is shown only if something fails.
func startServer(bin, root string) (*child, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close() // a free port a moment ago; the server binds it next

	logDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(logDir, fmt.Sprintf("ligra-serve-%d.log", os.Getpid()))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor

	c := &child{
		cmd:     exec.Command(bin, "-addr", addr),
		base:    "http://" + addr,
		logPath: logPath,
		exited:  make(chan struct{}),
	}
	c.cmd.Stderr = logFile
	// If this process dies in any way — a panic on some goroutine, SIGKILL
	// — the kernel kills the child. The signal is tied to the thread that
	// forked, so that thread is locked to a goroutine that lives exactly
	// as long as the child does.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		if err := c.cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		_ = c.cmd.Wait() // the exit status carries nothing the log does not
		close(c.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	childrenMu.Lock()
	children[c] = true
	childrenMu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.exited:
			return nil, c.failure("exited before becoming ready")
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, c.failure("not ready after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failure wraps a message with the tail of the server's log.
func (c *child) failure(msg string) error {
	log, _ := os.ReadFile(c.logPath)
	if len(log) > 4096 {
		log = log[len(log)-4096:]
	}
	return fmt.Errorf("ligra-serve %s; last log lines:\n%s", msg, bytes.TrimSpace(log))
}

// stop ends the child: SIGTERM (the server drains and exits 0), a bounded
// wait, then SIGKILL. Safe to call twice and from any goroutine.
func (c *child) stop() {
	childrenMu.Lock()
	tracked := children[c]
	delete(children, c)
	childrenMu.Unlock()
	if !tracked {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
	os.Remove(c.logPath)
}

func stopAllChildren() {
	childrenMu.Lock()
	all := make([]*child, 0, len(children))
	for c := range children {
		all = append(all, c)
	}
	childrenMu.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// procStatusMB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status in MiB; 0 when unreadable.
func procStatusMB(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS sets this process's VmHWM back to its current RSS (Linux:
// writing 5 to clear_refs). Best effort: where it fails, peak_rss_mb simply
// includes set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procCPU reads a process's user + system CPU time from /proc/<pid>/stat
// (clock ticks; USER_HZ is 100 on Linux).
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}
