package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// startTimeout bounds set-up; the default city trains in about 5 s.
	startTimeout = 90 * time.Second
	// stopTimeout bounds the drain after SIGTERM.
	stopTimeout = 30 * time.Second
	// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
	// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
	clockTicks = 100
	// rssEvery is how often the server's resident set is sampled while the
	// measured traffic runs.
	rssEvery = 100 * time.Millisecond
)

// server is one child server process under measurement.
type server struct {
	cmd     *exec.Cmd
	base    string
	log     *tail
	exited  chan struct{} // closed once the process has exited
	waitErr error         // valid after exited is closed
	// ready is the time from exec to the first 200 on /health, readyCPU the
	// CPU time the server used in it.
	ready, readyCPU time.Duration
}

// startServer launches bin on a fresh loopback port and waits until it
// answers /health. The child is killed if tsbench dies.
func startServer(ctx context.Context, bin string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, log: &tail{max: 16 << 10}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		if resp, err := probe.Get(s.base + "/health"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(start)
				break
			}
		}
		if time.Since(start) > startTimeout {
			s.kill()
			return nil, fmt.Errorf("%s did not answer /health within %v\n%s", bin, startTimeout, s.log)
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("%s exited before answering /health: %v\n%s", bin, s.waitErr, s.log)
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	if s.readyCPU, err = s.cpu(); err != nil {
		s.kill()
		return nil, fmt.Errorf("reading the CPU time of %s: %w", bin, err)
	}
	if !s.alive() {
		return nil, fmt.Errorf("%s answered /health but has exited: %v\n%s", bin, s.waitErr, s.log)
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// validate refuses a server that is not the one just started on the city the
// benchmark generates requests for: the child must be alive, /v1/info must
// report the fixture's road count, and /v1/model version 1 trained on
// exactly the fixture's observations.
func (s *server) validate(fx *fixture) error {
	var info struct {
		Roads int `json:"roads"`
	}
	if err := s.getJSON("/v1/info", &info); err != nil {
		return err
	}
	var model struct {
		Version      uint64 `json:"version"`
		Observations int    `json:"observations"`
	}
	if err := s.getJSON("/v1/model", &model); err != nil {
		return err
	}
	if !s.alive() {
		return fmt.Errorf("server process exited: %v\n%s", s.waitErr, s.log)
	}
	if info.Roads != fx.Roads || model.Version != 1 || model.Observations != fx.Observations {
		return fmt.Errorf("server reports %d roads, model v%d over %d observations; the benchmark's city has %d roads and %d observations",
			info.Roads, model.Version, model.Observations, fx.Roads, fx.Observations)
	}
	return nil
}

func (s *server) getJSON(path string, v any) error {
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// cpu returns the CPU time the server has used, user plus system.
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	// utime and stime are fields 14 and 15, the 12th and 13th after it.
	_, rest, ok := strings.Cut(string(raw), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc stat: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// hostTicks returns the machine's cumulative steal time and total CPU time
// from /proc/stat, in clock ticks. Steal is time the hypervisor ran another
// guest while this one had work: on a shared host it stretches every latency
// without moving the server's own CPU time.
func hostTicks() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		// Fields 9 and 10, guest time, are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// rss returns the process's resident set size (VmRSS) in MiB.
func (s *server) rss() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// sampleRSS reads the server's resident set size every rssEvery until stop
// is closed, then returns the samples, or the first error reading one.
func (s *server) sampleRSS(stop <-chan struct{}) ([]float64, error) {
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	var samples []float64
	for {
		mb, err := s.rss()
		if err != nil {
			return nil, err
		}
		samples = append(samples, mb)
		select {
		case <-stop:
			return samples, nil
		case <-t.C:
		}
	}
}

// stop sends SIGTERM and requires a clean exit within stopTimeout.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && s.alive() {
		s.kill()
		return fmt.Errorf("signalling server: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(stopTimeout):
		s.kill()
		return fmt.Errorf("server still running %v after SIGTERM\n%s", stopTimeout, s.log)
	}
	if s.waitErr != nil {
		return fmt.Errorf("server exited uncleanly: %v\n%s", s.waitErr, s.log)
	}
	return nil
}

// kill ends the process and waits for it; safe after it has exited.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only when the process is already gone
	<-s.exited
}

// tail keeps the last max bytes written to it: the end of a child's log,
// shown when the child misbehaves.
type tail struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
