package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// daemon is one spawned xpqd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
	log  *os.File
}

// startDaemon spawns xpqd on a free loopback port and waits until its
// preloaded corpus is resident and /healthz answers; it returns the
// time that took (the setup_s sample).
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-addr", addr, "-log-level", "warn"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the harness, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1), log: logf}
	go func() { d.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(120 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return d, time.Since(start), nil
			}
		}
		select {
		case werr := <-d.done:
			d.done <- werr
			d.log.Close()
			return nil, 0, fmt.Errorf("xpqd exited before becoming ready (%v); see %s", werr, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("xpqd did not become ready within 120s")
		}
	}
}

// stop asks xpqd to drain and exit, killing it if it does not, and
// waits until the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
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
	return 0, errors.New("VmHWM not found")
}

// getJSON decodes a GET endpoint of the daemon.
func getJSON(hc *http.Client, url string, dst any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func scrapeStats(hc *http.Client, base string) (*service.Stats, error) {
	var st service.Stats
	return &st, getJSON(hc, base+"/stats", &st)
}

// connect returns a client of d over at most conns connections,
// starting from the documents' current generations.
func connect(d *daemon, conns int, wl *workload, docs []*docSpec, or *oracle) (*client, error) {
	hc := newHTTPClient(conns)
	gen0, err := docGens(hc, d.base, docs)
	if err != nil {
		return nil, err
	}
	return newClient(d.base, hc, wl, docs, or, gen0), nil
}

// docGens reads each document's current generation from GET /docs.
func docGens(hc *http.Client, base string, docs []*docSpec) ([]uint64, error) {
	var list struct {
		Documents []struct {
			ID  string `json:"id"`
			Gen uint64 `json:"gen"`
		} `json:"documents"`
	}
	if err := getJSON(hc, base+"/docs", &list); err != nil {
		return nil, err
	}
	byID := map[string]uint64{}
	for _, d := range list.Documents {
		byID[d.ID] = d.Gen
	}
	gens := make([]uint64, len(docs))
	for i, d := range docs {
		g, ok := byID[d.id]
		if !ok {
			return nil, fmt.Errorf("xpqd did not load document %q", d.id)
		}
		gens[i] = g
	}
	return gens, nil
}
