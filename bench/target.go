package main

import (
	"bytes"
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

	gv "graphviews"
	"graphviews/internal/serve"
	"graphviews/internal/store"
)

// launcher starts the program under test on a workload's files. The
// benchmark uses childLauncher (the gvserve binary: the operators' code
// path); the smoke test uses inprocLauncher so that `go test` needs no
// second build.
type launcher interface {
	// launch starts a server for w on in's files; dataDir is only used by
	// durable workloads. The server may not be healthy yet on return.
	launch(w Workload, in *Inputs, dataDir string) (running, error)
}

// running is one started server.
type running interface {
	baseURL() string
	// kill stops the server the way a crash would — SIGKILL for a child,
	// listener close with the store left open for an in-process server —
	// and returns once it is gone.
	kill()
	// peakRSSMiB is the server's resident-set high-water mark.
	peakRSSMiB() (float64, error)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// waitHealthy polls /healthz until it answers 200 or the deadline
// passes. It uses a connection of its own so that the measured clients'
// keep-alive connections stay untouched.
func waitHealthy(base string, deadline time.Duration) error {
	cl := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{}}
	defer cl.CloseIdleConnections()
	stop := time.Now().Add(deadline)
	for {
		resp, err := cl.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(stop) {
			return fmt.Errorf("%s/healthz not 200 after %s (last error: %v)", base, deadline, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// vmHWM reads the peak resident set of pid from /proc, in MiB.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", pid)
}

// children tracks every live gvserve child so that an exit path — normal,
// error or signal — can kill them all and report any left behind.
var children struct {
	sync.Mutex
	live map[*childServer]struct{}
}

// killAllChildren kills and reaps every tracked child; it returns how
// many were still alive.
func killAllChildren() int {
	children.Lock()
	live := make([]*childServer, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
	return len(live)
}

// childLauncher runs the gvserve binary as a child process.
type childLauncher struct {
	bin    string
	logDir string
}

type childServer struct {
	cmd  *exec.Cmd
	url  string
	logf *os.File
}

func (l childLauncher) launch(w Workload, in *Inputs, dataDir string) (running, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(l.logDir+"/gvserve.log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(l.bin, append(w.serverArgs(in, dataDir), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", l.bin, err)
	}
	c := &childServer{cmd: cmd, url: "http://" + addr, logf: logf}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*childServer]struct{})
	}
	children.live[c] = struct{}{}
	children.Unlock()
	return c, nil
}

func (c *childServer) baseURL() string { return c.url }

func (c *childServer) kill() {
	children.Lock()
	_, live := children.live[c]
	delete(children.live, c)
	children.Unlock()
	if !live {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	_ = c.cmd.Wait()                          // the exit status of a killed child says nothing
	c.logf.Close()
}

func (c *childServer) peakRSSMiB() (float64, error) { return vmHWM(c.cmd.Process.Pid) }

// inprocLauncher serves the workload from this process on a loopback
// listener, loading the files the same way cmd/gvserve does.
type inprocLauncher struct{}

type inprocServer struct {
	srv *serve.Server
	hs  *http.Server
	url string
}

func (inprocLauncher) launch(w Workload, in *Inputs, dataDir string) (running, error) {
	g, vs, err := loadFiles(in.GraphFile, in.ViewsFile)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{Workers: 0, Shards: w.Shards, MaxInFlight: 64, RequestTimeout: 5 * time.Second}
	if w.Durable {
		st, err := store.Open(dataDir, store.Options{})
		if err != nil {
			return nil, err
		}
		if base := st.Base(); base != nil {
			g = thaw(base)
		}
		cfg.Store, cfg.PersistExtensions = st, true
	}
	srv, err := serve.NewServer(g, vs, cfg)
	if err != nil {
		return nil, err
	}
	if srv.Recovering() {
		go srv.Recover()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "bench: in-process server: %v\n", err)
		}
	}()
	return &inprocServer{srv: srv, hs: hs, url: "http://" + ln.Addr().String()}, nil
}

func (s *inprocServer) baseURL() string { return s.url }

// kill drops the listener and every connection. The store is left open
// and unflushed on purpose: the next launch opens the abandoned
// directory, which is what a restart after a crash does.
func (s *inprocServer) kill() {
	s.hs.Close()
	s.srv.Close()
}

func (s *inprocServer) peakRSSMiB() (float64, error) { return vmHWM(os.Getpid()) }

// loadFiles reads a graph and a view file as cmd/gvserve does.
func loadFiles(graphFile, viewsFile string) (*gv.Graph, *gv.ViewSet, error) {
	f, err := os.Open(graphFile)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, err := gv.ReadGraph(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", graphFile, err)
	}
	src, err := os.ReadFile(viewsFile)
	if err != nil {
		return nil, nil, err
	}
	ps, err := gv.ParsePatterns(string(src))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", viewsFile, err)
	}
	defs := make([]*gv.ViewDefinition, len(ps))
	for i, p := range ps {
		defs[i] = gv.Define("", p)
	}
	return g, gv.NewViewSet(defs...), nil
}

// thaw turns a checkpointed backend back into a mutable graph.
func thaw(base gv.GraphReader) *gv.Graph {
	return gv.Freeze(base).Thaw() // Freeze flattens a *Sharded and is a no-op on a *Frozen
}

// scrape reads the named counters off /metrics.
func scrape(cl *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, line := range bytes.Split(body, []byte("\n")) {
		for _, n := range names {
			if rest, ok := bytes.CutPrefix(line, []byte(n+" ")); ok {
				v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest)), 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	return out, nil
}
