package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/server"
)

// scratch is the benchmark's only writable area: <root>/.bench_build.
// The built wtserve lives in bin/, every invocation works in its own
// run-<pid>/ directory, and both the children and that directory are
// torn down on every exit path (see cleanup).
type scratch struct {
	root   string // checkout root (holds BENCHMARK.json and go.mod)
	build  string // <root>/.bench_build
	runDir string // <build>/run-<pid>
	bin    string // <build>/bin/wtserve
}

func newScratch(root string) (*scratch, error) {
	s := &scratch{root: root, build: filepath.Join(root, ".bench_build")}
	s.runDir = filepath.Join(s.build, fmt.Sprintf("run-%d", os.Getpid()))
	s.bin = filepath.Join(s.build, "bin", "wtserve")
	if err := os.MkdirAll(s.runDir, 0o755); err != nil {
		return nil, err
	}
	cleanup.addDir(s.runDir)
	return s, nil
}

// buildServer compiles cmd/wtserve from the checkout's own source. It
// runs before any timer starts; with a warm build cache it is a no-op
// relink check.
func (s *scratch) buildServer() error {
	cmd := exec.Command("go", "build", "-o", s.bin, "./cmd/wtserve")
	cmd.Dir = s.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/wtserve: %v\n%s", err, out)
	}
	return nil
}

// mkdir returns a fresh, empty directory under the run directory.
func (s *scratch) mkdir(name string) (string, error) {
	return os.MkdirTemp(s.runDir, name+"-")
}

// cleanupSet tracks what must not outlive the benchmark: child
// processes (killed by process group) and scratch directories.
type cleanupSet struct {
	mu       sync.Mutex
	children map[*child]struct{}
	dirs     []string
}

var cleanup = &cleanupSet{children: map[*child]struct{}{}}

func (c *cleanupSet) addDir(d string) { c.mu.Lock(); c.dirs = append(c.dirs, d); c.mu.Unlock() }

func (c *cleanupSet) run() {
	c.mu.Lock()
	kids := make([]*child, 0, len(c.children))
	for k := range c.children {
		kids = append(kids, k)
	}
	dirs := c.dirs
	c.dirs = nil
	c.mu.Unlock()
	for _, k := range kids {
		k.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// trapSignals makes SIGINT/SIGTERM take the same exit path as a normal
// return: children die, scratch directories go, then the process exits.
func trapSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		cleanup.run()
		os.Exit(130)
	}()
}

// serverConfig is everything that distinguishes one wtserve launch from
// another. The pinned flags (-sync=false -cache 4096) are added by
// args; everything not listed keeps the binary's default.
type serverConfig struct {
	dir     string
	shards  int
	columns string
	procs   int    // child GOMAXPROCS
	http    bool   // open the HTTP gateway on a free port
	follow  string // primary address, for a replication follower
}

const (
	pinnedCache = 4096
	pinnedProcs = 2
)

func (c serverConfig) args(listen, httpAddr string) []string {
	a := []string{"-dir", c.dir, "-listen", listen, "-http", httpAddr,
		"-sync=false", "-cache", strconv.Itoa(pinnedCache)}
	if c.shards > 0 {
		a = append(a, "-shards", strconv.Itoa(c.shards))
	}
	if c.columns != "" {
		a = append(a, "-columns", c.columns)
	}
	if c.follow != "" {
		a = append(a, "-follow", c.follow, "-follower-id", "bench-follower", "-repl-heartbeat", "100ms")
	}
	return a
}

// child is one running wtserve process in its own process group.
type child struct {
	cmd      *exec.Cmd
	addr     string // binary protocol
	httpAddr string // "" when the gateway is off
	stderr   string // file the child's stderr is captured to
	exited   chan struct{}
	flags    []string
}

// freePort asks the kernel for an unused loopback port by binding :0.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches wtserve and returns once it answers a Ping. A
// port handed out by freePort can be taken again before the child binds
// it, so a child that dies during start-up gets two more tries.
func (s *scratch) startServer(cfg serverConfig) (c *child, err error) {
	for try := 0; try < 3; try++ {
		if c, err = s.startOnce(cfg); err == nil {
			return c, nil
		}
	}
	return nil, err
}

func (s *scratch) startOnce(cfg serverConfig) (*child, error) {
	listen, err := freePort()
	if err != nil {
		return nil, err
	}
	httpAddr := ""
	if cfg.http {
		if httpAddr, err = freePort(); err != nil {
			return nil, err
		}
	}
	errFile, err := os.CreateTemp(s.runDir, "wtserve-stderr-")
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	if cfg.procs == 0 {
		cfg.procs = pinnedProcs
	}
	c := &child{addr: listen, httpAddr: httpAddr, stderr: errFile.Name(),
		exited: make(chan struct{}), flags: cfg.args(listen, httpAddr)}
	c.cmd = exec.Command(s.bin, c.flags...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.procs))
	c.cmd.Stderr = errFile
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	cleanup.mu.Lock()
	cleanup.children[c] = struct{}{}
	cleanup.mu.Unlock()
	go func() { c.cmd.Wait(); close(c.exited) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if cl, err := server.Dial(listen); err == nil {
			cl.Close()
			return c, nil
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("wtserve exited during start-up:\n%s", c.stderrText())
		default:
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("wtserve not ready after 30s:\n%s", c.stderrText())
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *child) forget() {
	cleanup.mu.Lock()
	delete(cleanup.children, c)
	cleanup.mu.Unlock()
}

// kill SIGKILLs the child's process group and waits for it — the
// process-crash half of the durability check, and the last resort of
// every exit path.
func (c *child) kill() {
	select {
	case <-c.exited: // already gone: its pid may belong to someone else by now
	default:
		syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
		<-c.exited
	}
	c.forget()
}

// stop drains the child with SIGTERM, falling back to kill.
func (c *child) stop() {
	select {
	case <-c.exited:
	default:
		syscall.Kill(c.cmd.Process.Pid, syscall.SIGTERM)
	}
	select {
	case <-c.exited:
		c.forget()
	case <-time.After(20 * time.Second):
		c.kill()
	}
}

func (c *child) stderrText() string {
	b, _ := os.ReadFile(c.stderr)
	return string(b)
}

// clockTick is the kernel's USER_HZ; it has been 100 on every Linux
// port Go supports, and sysconf is out of reach without cgo.
const clockTick = 100

// cpuSeconds is the child's utime+stime so far, from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// the closing parenthesis, where state is field 3.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	return (ut + st) / clockTick, nil
}

// rssMB is the child's resident set in MiB, from /proc/<pid>/status.
func (c *child) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// parseMetrics reads Prometheus text exposition into series → value,
// keyed by the series exactly as printed (labels included).
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrape fetches the server's own /metrics series over the binary
// protocol (OpMetrics serves the same text as the gateway).
func scrape(addr string) (map[string]float64, error) {
	cl, err := server.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	text, err := cl.MetricsText()
	if err != nil {
		return nil, err
	}
	return parseMetrics(text), nil
}
