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

	"quicksel/internal/cluster"
)

// proc is one started quickseld or quickselrouter process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// startProc starts bin with args, its output going to logPath. The child
// is killed if the benchmark dies first.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries nothing
		f.Close()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the process to exit, and kills it if it
// has not exited within 20 seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// deployment is one running set of processes for a workload.
type deployment struct {
	shards  []*proc
	router  *proc
	front   string            // base URL clients use: the router, or the only shard
	shardOf map[string]string // estimator name → base URL of its shard
}

// deploy starts the workload's shards in dir and, once they serve, its
// router, then waits until the router serves too. Starting the router
// after its shards lets its first health probe find them ready. extraRouter
// starts a router for a workload without one, which its clients do not use
// (the traced run times the router hop on every workload).
func deploy(c *http.Client, w *workloadDef, bins, dir string, extraRouter bool) (*deployment, error) {
	d := &deployment{shardOf: map[string]string{}}
	var shards []cluster.Shard
	for i := range w.Shards {
		port, err := freePort()
		if err != nil {
			d.stop()
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := []string{"-addr", addr}
		if w.WAL {
			args = append(args, "-wal-dir", filepath.Join(dir, fmt.Sprintf("wal-%d", i)))
		}
		args = append(args, w.DaemonFlags...)
		p, err := startProc(fmt.Sprintf("quickseld-%d", i), filepath.Join(bins, "quickseld"), args,
			filepath.Join(dir, fmt.Sprintf("quickseld-%d.log", i)))
		if err != nil {
			d.stop()
			return nil, err
		}
		p.url = "http://" + addr
		d.shards = append(d.shards, p)
		shards = append(shards, cluster.Shard{ID: fmt.Sprintf("s%d", i), Nodes: []cluster.Node{{URL: p.url}}})
	}
	m, err := cluster.BuildMap(shards)
	if err != nil {
		d.stop()
		return nil, err
	}
	ring, err := cluster.NewRing(m, 0)
	if err != nil {
		d.stop()
		return nil, err
	}
	for _, e := range w.Estimators {
		sh, _ := m.ShardByID(ring.Owner(e.Name))
		d.shardOf[e.Name] = sh.Nodes[0].URL
	}
	d.front = d.shards[0].url
	if err := waitReady(c, d.shards); err != nil {
		d.stop()
		return nil, err
	}
	if w.Router || extraRouter {
		port, err := freePort()
		if err != nil {
			d.stop()
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := []string{"-addr", addr}
		for _, s := range shards {
			args = append(args, "-shard", s.ID+"="+s.Nodes[0].URL)
		}
		d.router, err = startProc("quickselrouter", filepath.Join(bins, "quickselrouter"), args,
			filepath.Join(dir, "quickselrouter.log"))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.router.url = "http://" + addr
		if w.Router {
			d.front = d.router.url
		}
		if err := waitReady(c, []*proc{d.router}); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// waitReady polls each process's /readyz until it answers 200, for at most
// a minute.
func waitReady(c *http.Client, procs []*proc) error {
	const timeout = time.Minute
	deadline := time.Now().Add(timeout)
	for _, p := range procs {
		for {
			status, _, err := call(c, http.MethodGet, p.url+"/readyz", nil)
			if err == nil && status == http.StatusOK {
				break
			}
			select {
			case <-p.done:
				return fmt.Errorf("%s exited before it was ready", p.name)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %s (last status %d, error %v)", p.name, timeout, status, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// stop stops the router first, then the shards, waiting for each.
func (d *deployment) stop() {
	if d.router != nil {
		d.router.stop()
	}
	for _, p := range d.shards {
		p.stop()
	}
}

// shardRSSMB sums the shards' peak resident sets.
func (d *deployment) shardRSSMB() (float64, error) {
	var total float64
	for _, p := range d.shards {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// setUp creates, feeds and trains every estimator through the front door,
// then sends the first request: the part of set-up after the processes are
// ready.
func setUp(c *http.Client, w *workloadDef, d *deployment, expect0 float64) error {
	for _, e := range w.Estimators {
		body, _ := json.Marshal(map[string]any{"name": e.Name, "schema": e.Schema, "options": e.Options})
		status, resp, err := call(c, http.MethodPost, d.front+"/v1/estimators", body)
		if err == nil {
			err = expect(status, http.StatusCreated, resp, nil)
		}
		if err != nil {
			return fmt.Errorf("create %s: %w", e.Name, err)
		}
	}
	for _, e := range w.Estimators {
		if err := postObserve(c, d.front+"/v1/"+e.Name+"/observe", observeBody(e.Feed), len(e.Feed)); err != nil {
			return fmt.Errorf("feed %s: %w", e.Name, err)
		}
	}
	for _, e := range w.Estimators {
		status, resp, err := call(c, http.MethodPost, d.front+"/v1/"+e.Name+"/train", nil)
		if err == nil {
			err = expect(status, http.StatusOK, resp, nil)
		}
		if err != nil {
			return fmt.Errorf("train %s: %w", e.Name, err)
		}
	}
	e := w.Estimators[0]
	got, err := getEstimate(c, estimateURL(d.front, e.Name, e.Pool[0]))
	if err == nil {
		err = checkExact(got, expect0)
	}
	if err != nil {
		return fmt.Errorf("first estimate: %w", err)
	}
	return nil
}
