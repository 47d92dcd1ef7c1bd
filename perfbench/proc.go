package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"verdict/internal/server"
)

// daemon is one verdictd process under test.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	logf   *os.File
	exited chan struct{}
	err    error // the process's exit status, set before exited closes
}

// fleetAddrs picks n free loopback addresses on consecutive ports from
// a fixed base. Cluster routing hashes each node's advertised URL onto
// the ring, so the same ports give every run the same ring layout and
// the same share of work per node.
func fleetAddrs(n int) ([]string, error) {
	for base := 39300; base < 40300; base += 10 {
		var lns []net.Listener
		for i := 0; i < n; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		addrs := make([]string, len(lns))
		for i, ln := range lns {
			addrs[i] = ln.Addr().String()
			ln.Close()
		}
		if len(lns) == n {
			return addrs, nil
		}
	}
	return nil, fmt.Errorf("no %d free consecutive loopback ports", n)
}

// startDaemon launches verdictd with its log in dir/verdictd.log.
func startDaemon(bin, dir, addr string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "verdictd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-drain-timeout", "10s"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the harness, so an interrupted run leaves
	// no process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting verdictd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, logf: logf, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls /healthz until ready accepts the body, the process
// dies, or the timeout passes.
func (d *daemon) waitReady(hc *http.Client, timeout time.Duration, ready func(server.HealthzResponse) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("verdictd %s exited during start-up: %v", d.url, d.err)
		default:
		}
		if resp, err := hc.Get(d.url + "/healthz"); err == nil {
			var h server.HealthzResponse
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && ready(h) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("verdictd %s not ready after %v", d.url, timeout)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs,
// and waits for the process to exit.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.logf.Close()
}

// fleet is the set of daemons of one workload phase.
type fleet []*daemon

func (f fleet) stop() {
	for _, d := range f {
		d.stop()
	}
}

func (f fleet) peakRSSMB() float64 {
	var m float64
	for _, d := range f {
		m = max(m, d.peakRSSMB())
	}
	return m
}

func (f fleet) scrape(hc *http.Client) ([]promSample, error) {
	out := make([]promSample, len(f))
	for i, d := range f {
		s, err := scrape(hc, d.url)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// startFleet launches n daemons with fresh data directories under dir
// and returns once every one is ready: /healthz 200 and, in a cluster,
// every peer healthy. args(i, dir, addrs) gives node i's flags.
func startFleet(bin, dir string, n int, args func(i int, dir string, addrs []string) []string) (fleet, time.Duration, error) {
	addrs, err := fleetAddrs(n)
	if err != nil {
		return nil, 0, err
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	start := time.Now()
	var f fleet
	for i := range addrs {
		nodeDir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		d, err := startDaemon(bin, nodeDir, addrs[i], args(i, nodeDir, addrs)...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f = append(f, d)
	}
	for _, d := range f {
		err := d.waitReady(hc, 30*time.Second, func(h server.HealthzResponse) bool {
			return h.Journal.Status == "active" && (n == 1 || h.Cluster.PeersHealthy == n-1)
		})
		if err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

// setupFleet starts the fleet `reps` times, keeps the last one running
// and returns it with the median start-up time. Each start gets fresh
// data directories, so no start reads an earlier one's journal.
func setupFleet(bin, dir string, reps, n int, args func(i int, dir string, addrs []string) []string) (fleet, float64, error) {
	var times []float64
	var f fleet
	for r := 0; r < reps; r++ {
		f.stop()
		var took time.Duration
		var err error
		f, took, err = startFleet(bin, filepath.Join(dir, fmt.Sprintf("setup%d", r)), n, args)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, took.Seconds())
	}
	return f, median(times), nil
}
