package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running dshserve process.
type server struct {
	cmd     *exec.Cmd
	addr    string // 127.0.0.1:port
	base    string // http://addr
	started time.Time
	log     *serverLog
	exited  chan struct{}
	waitErr error
}

// serverLog keeps dshserve's standard error for diagnostics and picks the
// listen address out of its "serving on ADDR" line.
type serverLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() < 1<<20 {
		l.buf.Write(p)
	}
	if !l.sent {
		s := l.buf.String()
		if i := strings.Index(s, "serving on "); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				l.addr <- strings.TrimSpace(s[i+len("serving on ") : i+j])
				l.sent = true
			}
		}
	}
	return len(p), nil
}

func (l *serverLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startTimeout bounds how long dshserve may take to start listening,
// in-process preload or recovery included.
const startTimeout = 120 * time.Second

// startServer execs dshserve on a loopback port and waits until /healthz
// answers 200 over hc. started is taken just before the exec.
func startServer(bin string, args []string, hc *http.Client) (*server, error) {
	lg := &serverLog{addr: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = lg
	// If the benchmark itself is killed, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, log: lg, exited: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec dshserve: %w", err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-lg.addr:
		s.base = "http://" + s.addr
	case <-s.exited:
		return nil, fmt.Errorf("dshserve exited before listening (%v):\n%s", s.waitErr, lg)
	case <-time.After(startTimeout):
		s.kill()
		return nil, fmt.Errorf("dshserve did not listen within %v:\n%s", startTimeout, lg)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("dshserve never became healthy (%v):\n%s", err, lg)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, which makes dshserve drain and close its index, and
// waits for the process to exit. A server that does not drain in time is
// killed and reported.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("dshserve did not drain within 30s:\n%s", s.log)
	}
	if s.waitErr != nil {
		return fmt.Errorf("dshserve exited with %v:\n%s", s.waitErr, s.log)
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every mainstream Linux build.
const clockTicks = 100

// cpuTime returns the user plus system CPU time a process has used.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) is parenthesised and may itself contain
// spaces and parentheses, so fields are counted after its last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command name")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are fields
	// 14 and 15, so indexes 11 and 12 here.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns a process's resident-set high-water mark (VmHWM) in
// bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("status: no VmHWM line")
}

// vars is the part of dshserve's /debug/vars the ledger reads.
type vars struct {
	Counters   map[string]uint64 `json:"counters"`
	Gauges     map[string]int64  `json:"gauges"`
	Histograms map[string]struct {
		Count uint64 `json:"count"`
		Sum   uint64 `json:"sum"`
	} `json:"histograms"`
}

// delta is the growth of a counter between two scrapes.
func delta(before, after *vars, counter string) float64 {
	return float64(after.Counters[counter] - before.Counters[counter])
}

// histMean is the mean of the observations a histogram gained between two
// scrapes, and their number.
func histMean(before, after *vars, hist string) (float64, int) {
	n := after.Histograms[hist].Count - before.Histograms[hist].Count
	if n == 0 {
		return 0, 0
	}
	return float64(after.Histograms[hist].Sum-before.Histograms[hist].Sum) / float64(n), int(n)
}

func decodeVars(b []byte) (*vars, error) {
	var v vars
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return &v, nil
}
