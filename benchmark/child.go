package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

const modelName = "uni"

// rssEvery is the spacing of the server's VmRSS readings during the
// fixed phase: a hundred readings in a ten-second phase.
const rssEvery = 100 * time.Millisecond

// buildServer compiles cmd/rdfserve from the checkout the benchmark
// runs in, so the numbers are of the code at hand and never of a stale
// binary.
func buildServer(ctx context.Context, outDir string) (string, error) {
	bin := filepath.Join(outDir, "rdfserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rdfserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rdfserve: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one running rdfserve.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  bytes.Buffer
	setupS  float64 // launch → first healthy /healthz
	stopped bool
}

// launch starts rdfserve with its shipped defaults plus flags, and
// returns once /healthz answers 200. The server listens only after its
// start-up work (load, or snapshot + WAL replay), prints its address,
// and the first probe follows at once — so setupS is the program's
// start-up and nothing of the benchmark's.
func launch(ctx context.Context, bin string, flags ...string) (*child, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-model", modelName}, flags...)
	c := &child{cmd: exec.CommandContext(ctx, bin, args...)}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		// "serving on http://127.0.0.1:43123/ (model ...)"
		if rest, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
			c.base = strings.TrimSuffix(strings.Fields(rest)[0], "/")
			break
		}
	}
	if c.base == "" {
		c.kill()
		return nil, fmt.Errorf("rdfserve %v exited before serving: %s", args, c.stderr.String())
	}
	go io.Copy(io.Discard, stdout) // keep later prints from blocking the server; ends when the pipe closes at exit
	resp, err := http.Get(c.base + "/healthz")
	if err != nil {
		c.kill()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.setupS = time.Since(t0).Seconds()
	if resp.StatusCode != 200 {
		c.kill()
		return nil, fmt.Errorf("rdfserve %v: first /healthz answered %d", args, resp.StatusCode)
	}
	return c, nil
}

// kill sends SIGKILL and waits for the process to end. The operating
// system keeps whatever the process wrote, fsynced or not: a kill tests
// the recovery path, not the honesty of fsync.
func (c *child) kill() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// rssMB reads the server's resident set from /proc.
func (c *child) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", c.cmd.Process.Pid)
}

// sampleRSS reads the resident set every rssEvery until stop is closed.
// A Go heap saws between its live size and about twice that with every
// collection cycle, and a checkpoint adds its buffers for a moment, so
// one reading says where in a cycle it fell; the median of a phase's
// readings says how much memory the server holds.
func (c *child) sampleRSS(stop <-chan struct{}) []float64 {
	var samples []float64
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		if mb, err := c.rssMB(); err == nil {
			samples = append(samples, mb)
		}
		select {
		case <-stop:
			return samples
		case <-tick.C:
		}
	}
}

// counters scrapes /debug/metrics and returns every sample by name
// (histograms contribute name_sum and name_count).
func (c *child) counters() (map[string]float64, error) {
	resp, err := http.Get(c.base + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range exp.Samples {
		if s.Labels == "" {
			out[s.Name] = s.Value
		}
	}
	return out, nil
}
