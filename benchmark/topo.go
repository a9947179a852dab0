package main

// Process management: build iphrd from the checked-out tree, start one
// of the two topologies as real processes on free loopback ports, read
// their /proc counters, and stop them so that no run — finished,
// failed, timed out or interrupted — leaves an iphrd behind.

import (
	"context"
	"encoding/json"
	"errors"
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

	"fairhealth/internal/httpapi"
)

const (
	corpusUsers   = 1000
	corpusSeed    = 1
	corpusItems   = 120 // what iphrd -demo generates
	corpusPerUser = 25
	netWorkers    = 3
	// stopGrace is how long a SIGTERMed server may drain before SIGKILL.
	stopGrace = 5 * time.Second
)

// findRoot walks up from the working directory to the checkout root:
// the directory whose go.mod declares module fairhealth.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if line, _, _ := strings.Cut(string(raw), "\n"); strings.TrimSpace(line) == "module fairhealth" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a fairhealth checkout (no go.mod declaring module fairhealth above the working directory)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/iphrd from the tree at root into
// benchmark/out/bin, on every run, so a stale binary is never timed.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "iphrd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/iphrd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/iphrd: %w", err)
	}
	return bin, nil
}

// freePorts reserves n distinct free loopback ports (iphrd logs the
// configured address, not the bound one, so ports are picked up
// front). All listeners are held until every port is known.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// proc is one server-side process.
type proc struct {
	role   string // "coordinator" or "worker<i>"
	args   []string
	cmd    *exec.Cmd
	stderr *os.File
	exited chan struct{} // closed once Wait has returned
}

// topology is a running deployment. procs[0] is the HTTP-facing
// server; the rest are partition workers.
type topology struct {
	bin      string
	dir      string // benchmark/out/<workload>
	base     string // http://127.0.0.1:port
	stateDir string // "" unless the server runs with -state
	procs    []*proc
	hc       *http.Client
}

func (t *topology) coordinator() *proc { return t.procs[0] }
func (t *topology) workers() []*proc   { return t.procs[1:] }

// spawn starts one iphrd, stderr appended to <dir>/<role>.stderr. The
// child dies with this process even on SIGKILL (childAttr), which is
// the backstop behind stop().
func (t *topology) spawn(role string, args []string) (*proc, error) {
	f, err := os.OpenFile(filepath.Join(t.dir, role+".stderr"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(t.bin, args...)
	cmd.Stderr = f
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	p := &proc{role: role, args: args, cmd: cmd, stderr: f, exited: make(chan struct{})}
	go func() {
		cmd.Wait() // exit status is irrelevant: stop() kills on purpose
		close(p.exited)
	}()
	return p, nil
}

// halt SIGTERMs the process, waits for it, and SIGKILLs it if it has
// not exited within stopGrace.
func (p *proc) halt() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(stopGrace):
		p.cmd.Process.Kill()
		<-p.exited
	}
	p.stderr.Close()
}

// stop halts every process, HTTP-facing server first, and waits for
// each to end.
func (t *topology) stop() {
	for _, p := range t.procs {
		p.halt()
	}
	t.procs = nil
	t.hc.CloseIdleConnections()
}

// startTopology starts the workload's deployment in dir and returns it
// once the HTTP-facing server answers /healthz with the full corpus
// loaded. The elapsed time is the set-up time a deployer would see:
// first process spawned → ready to serve.
func startTopology(ctx context.Context, bin, dir string, w workload) (*topology, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t := &topology{bin: bin, dir: dir, hc: &http.Client{Timeout: 30 * time.Second}}
	n := 1
	if w.net3 {
		n += netWorkers
	}
	addrs, err := freePorts(n)
	if err != nil {
		return nil, 0, err
	}
	t.base = "http://" + addrs[0]
	args := []string{"-addr", addrs[0], "-demo", "-demo-users", strconv.Itoa(corpusUsers), "-demo-seed", strconv.Itoa(corpusSeed)}
	if w.net3 {
		args = append(args, "-partition-peers", strings.Join(addrs[1:], ","))
	} else if w.churn {
		// A per-run state directory: acknowledged writes must survive
		// the restarts the per-layer run makes.
		t.stateDir, err = os.MkdirTemp(dir, "state-")
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-state", t.stateDir)
	}

	start := time.Now()
	fail := func(err error) (*topology, time.Duration, error) {
		t.stop()
		return nil, 0, err
	}
	// Workers first: the coordinator handshakes once at start-up and
	// treats an unreachable peer as down.
	workers := make([]*proc, 0, netWorkers)
	for i, addr := range addrs[1:] {
		p, err := t.spawn("worker"+strconv.Itoa(i), []string{"-partition-listen", addr})
		if err != nil {
			t.procs = workers
			return fail(err)
		}
		workers = append(workers, p)
	}
	t.procs = workers
	for i, addr := range addrs[1:] {
		if err := waitFor(ctx, workers[i], func() bool {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return false
			}
			c.Close()
			return true
		}); err != nil {
			return fail(fmt.Errorf("worker %d: %w", i, err))
		}
	}
	coord, err := t.spawn("coordinator", args)
	if err != nil {
		return fail(err)
	}
	t.procs = append([]*proc{coord}, workers...)
	if err := t.waitHealthy(ctx); err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)
	st, err := t.stats()
	if err != nil {
		return fail(err)
	}
	if st.Ratings != corpusUsers*corpusPerUser || st.Patients != corpusUsers {
		return fail(fmt.Errorf("corpus not loaded: %d ratings, %d patients", st.Ratings, st.Patients))
	}
	return t, elapsed, nil
}

// waitFor polls ready every 2 ms until it holds, the process exits, or
// ctx ends.
func waitFor(ctx context.Context, p *proc, ready func() bool) error {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if ready() {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up (see %s)", p.role, p.stderr.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// waitHealthy waits until the HTTP-facing server answers /healthz.
func (t *topology) waitHealthy(ctx context.Context) error {
	return waitFor(ctx, t.coordinator(), func() bool {
		resp, err := t.hc.Get(t.base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// respawn starts the halted process in slot i again, with its old role
// and arguments.
func (t *topology) respawn(i int) (*proc, error) {
	p, err := t.spawn(t.procs[i].role, t.procs[i].args)
	if err != nil {
		return nil, err
	}
	t.procs[i] = p
	return p, nil
}

// restartCoordinator SIGTERMs the HTTP-facing server and starts it
// again with the same arguments (so on the same -state directory),
// returning start → /healthz.
func (t *topology) restartCoordinator(ctx context.Context) (time.Duration, error) {
	t.coordinator().halt()
	start := time.Now()
	if _, err := t.respawn(0); err != nil {
		return 0, err
	}
	t.hc.CloseIdleConnections()
	if err := t.waitHealthy(ctx); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// stats fetches GET /v1/stats.
func (t *topology) stats() (httpapi.StatsResponse, error) {
	var st httpapi.StatsResponse
	resp, err := t.hc.Get(t.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return st, nil
}

// walBytes is the size of the server's event log (0 without -state).
func (t *topology) walBytes() int64 {
	if t.stateDir == "" {
		return 0
	}
	fi, err := os.Stat(filepath.Join(t.stateDir, "events.wal"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// procUsage is one /proc snapshot of a process.
type procUsage struct {
	cpuMS  float64 // user + system CPU time so far
	rssMB  float64 // VmRSS
	peakMB float64 // VmHWM
}

// userHZ is the kernel's clock-tick unit in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux ABI Go runs on).
const userHZ = 100

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from after its closing parenthesis, where field 3 begins.
	_, rest, ok := strings.Cut(string(raw), ") ")
	if !ok {
		return u, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	// Parse errors are dropped here and below: the kernel formats
	// these fields as plain integers.
	utime, _ := strconv.ParseFloat(f[11], 64) // field 14
	stime, _ := strconv.ParseFloat(f[12], 64) // field 15
	u.cpuMS = (utime + stime) * 1000 / userHZ

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 64)
		switch key {
		case "VmRSS":
			u.rssMB = kb / 1024
		case "VmHWM":
			u.peakMB = kb / 1024
		}
	}
	return u, nil
}

// usage sums /proc snapshots: the HTTP-facing server and the workers.
func (t *topology) usage() (coord, workers procUsage, err error) {
	coord, err = readUsage(t.coordinator().cmd.Process.Pid)
	if err != nil {
		return
	}
	for _, p := range t.workers() {
		u, uerr := readUsage(p.cmd.Process.Pid)
		if uerr != nil {
			return coord, workers, uerr
		}
		workers.cpuMS += u.cpuMS
		workers.rssMB += u.rssMB
		workers.peakMB += u.peakMB
	}
	return coord, workers, nil
}
