package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"wpred/internal/loadgen"
)

// daemon is one running wpredd child process.
type daemon struct {
	cmd     *exec.Cmd
	api     string // base URL of the prediction API
	debug   string // base URL of the -metrics-addr endpoint
	started time.Time
	exited  chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startDaemon launches wpredd on loopback ports the kernel picks and waits
// until /readyz answers 200. The returned duration is launch to ready.
func startDaemon(ctx context.Context, bin string, flags []string) (*daemon, time.Duration, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	// The child must not outlive the benchmark, even if the benchmark is
	// killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	apiC, debugC := make(chan string, 1), make(chan string, 1)
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start wpredd: %w", err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if a, ok := addrAfter(line, "wpredd: debug endpoint on http://"); ok {
				debugC <- "http://" + a
			}
			if a, ok := addrAfter(line, "wpredd: listening on "); ok {
				apiC <- "http://" + a
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(d.exited)
	}()

	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%w; wpredd stderr:\n%s", err, d.stderrTail())
	}
	deadline := time.After(120 * time.Second)
	for d.api == "" || d.debug == "" {
		select {
		case d.api = <-apiC:
		case d.debug = <-debugC:
		case <-d.exited:
			return fail(fmt.Errorf("wpredd exited during start-up"))
		case <-deadline:
			return fail(fmt.Errorf("wpredd printed no listen addresses within 120 s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(d.api + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(d.started), nil
			}
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-d.exited:
			return fail(fmt.Errorf("wpredd exited before /readyz returned 200"))
		case <-deadline:
			return fail(fmt.Errorf("wpredd not ready within 120 s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
}

// addrAfter extracts the address that follows prefix in a wpredd log line.
func addrAfter(line, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(line, prefix)
	if !ok {
		return "", false
	}
	addr, _, _ := strings.Cut(rest, " ")
	return addr, addr != ""
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop kills wpredd and waits for it to exit. The benchmark never measures
// shutdown, and a graceful drain would rewrite the snapshot directory
// between set-up probes.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// scrape reads wpredd's Prometheus counters.
func (d *daemon) scrape() (map[string]float64, error) {
	return loadgen.ScrapeURL(d.debug + "/metrics")
}

// memStats forces a GC in wpredd and reads its runtime.MemStats.
func (d *daemon) memStats() (map[string]uint64, error) {
	c := &http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get(d.debug + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("heap profile: status %d", resp.StatusCode)
	}
	return parseMemStats(resp.Body)
}

// cpuMillis reads a process's user+system CPU time from /proc.
func cpuMillis(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := cpuTicks(string(raw))
	if err != nil {
		return 0, err
	}
	return float64(t) * 1000 / clockTicksPerSec, nil
}

// readHostCPU reads the host-wide CPU counters from /proc/stat.
func readHostCPU() (hostCPU, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	defer f.Close()
	return parseHostCPU(f)
}

// envReading is one sample of the readings that explain a run: the
// server's CPU, this process's CPU and the host's steal counter.
type envReading struct {
	serverMS, driverMS float64
	host               hostCPU
}

func readEnv(d *daemon) (envReading, error) {
	var r envReading
	var err error
	if r.serverMS, err = cpuMillis(d.cmd.Process.Pid); err != nil {
		return r, err
	}
	// This process's own CPU comes from getrusage, whose microseconds
	// resolve the few tens of milliseconds a run costs it.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return r, err
	}
	r.driverMS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	r.host, err = readHostCPU()
	return r, err
}
