package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process of the fleet under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	// lines is closed when the stdout reader has drained the pipe.
	lines chan struct{}
}

// startProc execs bin and waits for its "listening on <addr>" line.
// Stdout and stderr go to a log file under logDir; the child is killed
// if the benchmark dies first.
func startProc(bin, name, logDir string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, lines: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.lines)
		defer logf.Close()
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, " listening on "); i >= 0 && !sent {
				f := strings.Fields(line[i+len(" listening on "):])
				if len(f) > 0 {
					addr <- f[0]
					sent = true
				}
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			p.kill()
			return nil, fmt.Errorf("%s exited before listening (see %s.log)", name, name)
		}
		p.url = "http://" + a
		return p, nil
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not report a listen address", name)
	}
}

// stop asks the process to drain (SIGTERM), waits for it, and kills it
// if it has not exited within the grace period.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	<-p.lines
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
	<-p.lines
}

// procStat reads the process's user+system CPU seconds and its peak
// resident set (VmHWM) in MiB from /proc.
func procStat(pid int) (cpuS, hwmMB float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ=100).
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	cpuS = (ut + st) / 100
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			hwmMB = kb / 1024
		}
	}
	return cpuS, hwmMB, nil
}

// fleet is the set of server processes one workload runs against.
type fleet struct {
	procs    []*proc
	url      string   // the endpoint jobs are sent to
	backends []string // mlmserve URLs (all servers; the coordinator excluded)
}

// usage sums CPU seconds and peak RSS over the fleet.
func (f *fleet) usage() (cpuS, hwmMB float64, err error) {
	for _, p := range f.procs {
		c, h, err := procStat(p.cmd.Process.Pid)
		if err != nil {
			return 0, 0, err
		}
		cpuS += c
		hwmMB += h
	}
	return cpuS, hwmMB, nil
}

// stop drains and stops the fleet front to back: the coordinator (last
// started) first, then the backends.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
}

// bootFleet starts the workload's servers and waits until the fleet is
// ready: /healthz answers 200 and, behind a coordinator, every backend
// is reported up. It returns the time from the first exec to ready.
func bootFleet(env *env, w *workload) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f := &fleet{}
	for i := 0; i < max(1, w.backends); i++ {
		args := append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn"}, w.serverArgs(env)...)
		p, err := startProc(env.bin("mlmserve"), fmt.Sprintf("mlmserve-%d", i), env.work, args...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.procs = append(f.procs, p)
		f.backends = append(f.backends, p.url)
	}
	f.url = f.backends[0]
	if w.backends > 0 {
		args := append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn",
			"-backends", strings.Join(f.backends, ",")}, w.coordArgs...)
		p, err := startProc(env.bin("mlmcoord"), "mlmcoord", env.work, args...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.procs = append(f.procs, p)
		f.url = p.url
	}
	if err := waitReady(f.url, w.backends); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(t0), nil
}

// waitReady polls /healthz until it answers 200 and, when backends > 0,
// lists that many backends as up.
func waitReady(url string, backends int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hc := &http.Client{}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			var body struct {
				Backends []struct {
					Up bool `json:"up"`
				} `json:"backends"`
			}
			ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&body) == nil
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			up := 0
			for _, b := range body.Backends {
				if b.Up {
					up++
				}
			}
			if ok && up >= backends {
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready within 30s", url)
		case <-time.After(500 * time.Microsecond):
		}
	}
}
