package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crossinv/internal/bench"
	"crossinv/internal/core"
	"crossinv/internal/daemon"
	"crossinv/internal/workloads"
)

const (
	// hotPrograms is the size of serve-hot's warmed program set.
	hotPrograms = 16
	// coldPerSecond sets serve-cold's fixed program count per run:
	// --seconds × coldPerSecond programs, about --seconds of work at the
	// commit that defined the benchmark. The daemon's program cache never
	// evicts, so the count, not a duration, bounds the run's memory.
	coldPerSecond = 26
	// hotSetupReps is how many spawn-and-warm set-ups serve-hot's setup_s
	// is the median of.
	hotSetupReps = 3
	// coldSetupReps is how many daemon spawns serve-cold's setup_s is the
	// median of (a spawn takes milliseconds).
	coldSetupReps = 15
	// stopTimeout bounds a daemon's SIGTERM drain before it is killed.
	stopTimeout = 30 * time.Second
)

// daemonProc is a crossinvd child process.
type daemonProc struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	drained chan struct{} // closed once its stdout reaches EOF
}

// startDaemon spawns crossinvd on a loopback port chosen by the kernel and
// waits for its address handshake line.
func startDaemon(bin, cacheDir string, workers int) (*daemonProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache", cacheDir, "-workers", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting crossinvd: %w", err)
	}
	// A daemon that never prints its handshake is killed, which closes
	// the pipe and ends the read below.
	timer := time.AfterFunc(stopTimeout, func() { _ = cmd.Process.Kill() })
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	timer.Stop()
	_, rest, found := strings.Cut(line, "serving on ")
	if err != nil || !found || len(strings.Fields(rest)) == 0 {
		_ = cmd.Process.Kill()
		_, _ = io.Copy(io.Discard, br)
		_ = cmd.Wait()
		return nil, fmt.Errorf("crossinvd handshake: got %q (%v)", line, err)
	}
	d := &daemonProc{cmd: cmd, base: strings.Fields(rest)[0], drained: make(chan struct{})}
	go func() {
		_, _ = io.Copy(io.Discard, br)
		close(d.drained)
	}()
	// crossinvd prints its handshake before it installs its SIGTERM
	// handler, and serves only after; a first healthy reply means a drain
	// request will be honoured.
	if err := d.awaitHealthy(); err != nil {
		_ = cmd.Process.Kill()
		<-d.drained
		_ = cmd.Wait()
		return nil, err
	}
	return d, nil
}

// awaitHealthy polls /healthz until it answers 200.
func (d *daemonProc) awaitHealthy() error {
	deadline := time.Now().Add(stopTimeout)
	for {
		hr, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, hr.Body)
			hr.Body.Close()
			if hr.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("crossinvd at %s not healthy within %v (last error %v)", d.base, stopTimeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB is the daemon's peak resident set so far.
func (d *daemonProc) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that has not exited after stopTimeout is killed.
func (d *daemonProc) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-d.drained
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("crossinvd exit: %w", err)
		}
		return nil
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("crossinvd did not drain within %v", stopTimeout)
	}
}

// client sends /run requests over keep-alive connections, like
// `crossinv -remote`: each call blocks on its reply.
type client struct {
	hc      *http.Client
	base    string
	workers int
}

func newClient(base string, conns, workers int) *client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base, workers: workers}
}

// reply is one request's outcome. err is a transport error, a non-200
// status, or an output that differs from the benchmark's reference.
type reply struct {
	resp daemon.RunResponse
	rtt  time.Duration
	err  error
}

// run sends p in auto mode and checks the reply against p's reference.
func (c *client) run(p *program) reply {
	body, err := json.Marshal(&daemon.RunRequest{Source: p.source, Mode: "auto", Workers: c.workers})
	if err != nil {
		return reply{err: err}
	}
	start := time.Now()
	hr, err := c.hc.Post(c.base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{rtt: time.Since(start), err: err}
	}
	var r reply
	err = json.NewDecoder(hr.Body).Decode(&r.resp)
	_, _ = io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	r.rtt = time.Since(start)
	switch {
	case err != nil:
		r.err = fmt.Errorf("decoding reply: %w", err)
	case hr.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("status %d: %s", hr.StatusCode, r.resp.Error)
	case r.resp.Checksum != p.ref:
		r.err = fmt.Errorf("checksum %x, reference %x", r.resp.Checksum, p.ref)
	}
	return r
}

// references computes each program's checksum with the benchmark's own
// sequential interpreter run, before anything is timed.
func references(progs []program) error {
	for i := range progs {
		c, err := core.Compile(progs[i].source)
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		env, err := c.RunSequential()
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		progs[i].ref = env.Checksum()
	}
	return nil
}

// closedLoop runs clients closed-loop senders over the sequence
// progs[order[0]], progs[order[1]], ... (wrapping), until d has elapsed
// or, with d = 0, until len(order) requests were sent. Every successful
// reply must carry wantCache; one that does not invalidates the run.
func closedLoop(c *client, progs []program, order []int, clients int, d time.Duration, wantCache string) (loopStats, []reply, error) {
	var next atomic.Int64
	start := time.Now()
	per := make([][]reply, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if d > 0 && time.Since(start) >= d || d == 0 && i >= len(order) {
					return
				}
				per[g] = append(per[g], c.run(&progs[order[i%len(order)]]))
			}
		}(g)
	}
	wg.Wait()
	l := loopStats{elapsed: time.Since(start)}
	var all []reply
	var wrong []string
	for _, rs := range per {
		for _, r := range rs {
			all = append(all, r)
			l.attempted++
			if r.err != nil {
				l.failed++
				continue
			}
			if r.resp.Cache != wantCache {
				wrong = append(wrong, r.resp.Cache)
			}
			l.lat = append(l.lat, ms(r.rtt))
		}
	}
	if len(wrong) > 0 {
		return l, all, fmt.Errorf("%d replies labelled cache %q, want %q: the run is invalid", len(wrong), wrong[0], wantCache)
	}
	return l, all, nil
}

// firstError reports the first failed reply, for the log.
func firstError(rs []reply) {
	for _, r := range rs {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request failed: %v\n", r.err)
			return
		}
	}
}

// cycleOrder is a request sequence of n entries over k programs: seeded
// permutations of 0..k-1 back to back, so every program is sent equally
// often.
func cycleOrder(rng *workloads.Rng, k, n int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// runServeHot is the serve-hot workload: nproc keep-alive clients cycle a
// seeded, warmed program set through crossinvd in auto mode.
func runServeHot(cfg config) (*result, error) {
	clients := cfg.workers
	progs := genPrograms(cfg.seed, hotPrograms)
	if err := references(progs); err != nil {
		return nil, err
	}
	printEnv(cfg, clients, cfg.workDir)
	warmOrder := make([]int, len(progs))
	for i := range warmOrder {
		warmOrder[i] = i
	}
	// Set-up: spawn a daemon over an empty cache and warm every program
	// (one cold request, then one hot); repeated, the last daemon serves.
	var d *daemonProc
	var c *client
	var setups []float64
	reps := hotSetupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		d, err = startDaemon(cfg.daemonBin, filepath.Join(cfg.workDir, fmt.Sprintf("cache-%d", i)), cfg.workers)
		if err != nil {
			return nil, err
		}
		c = newClient(d.base, clients, cfg.workers)
		for _, want := range []string{"cold", "hot"} {
			l, rs, err := closedLoop(c, progs, warmOrder, 1, 0, want)
			if err == nil && l.failed > 0 {
				firstError(rs)
				err = fmt.Errorf("warming: %d of %d requests failed", l.failed, l.attempted)
			}
			if err != nil {
				_ = d.stop()
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res, err := measureHot(cfg, d, c, progs, clients, setups)
	if serr := d.stop(); err == nil && serr != nil {
		return nil, serr
	}
	return res, err
}

func measureHot(cfg config, d *daemonProc, c *client, progs []program, clients int, setups []float64) (*result, error) {
	rng := workloads.NewRng(cfg.seed ^ 0x5eed)
	order := cycleOrder(rng, len(progs), 1<<16)
	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		l, rs, err := closedLoop(c, progs, order, clients, total, "hot")
		if err != nil {
			return nil, err
		}
		firstError(rs)
		rss, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		return e2eResult(l, setups, rss, "requests", "the crossinvd child"), nil
	}
	untraced, rs0, err := closedLoop(c, progs, order, clients, total/3, "hot")
	if err != nil {
		return nil, err
	}
	traced, rs, err := closedLoop(c, progs, order, clients, total/3, "hot")
	if err != nil {
		return nil, err
	}
	firstError(append(rs0, rs...))
	lm := map[string]float64{}
	replyLayers(lm, rs)
	lm["trace.overhead_frac"] = 1 - ratio(traced.opsPerS(), untraced.opsPerS())
	ip, err := hotLayers(lm, progs, cfg, total-2*(total/3))
	if err != nil {
		return nil, err
	}
	fmt.Printf("tracing: untraced %.3f requests/s, traced %.3f requests/s\n", untraced.opsPerS(), traced.opsPerS())
	return layerResult(lm, untraced.attempted+traced.attempted+ip.attempted, untraced.failed+traced.failed+ip.failed, "serve-hot"), nil
}

// runServeCold is the serve-cold workload: one client sends a fixed count
// of never-seen programs to a daemon over an empty cache.
func runServeCold(cfg config) (*result, error) {
	n := cfg.seconds * coldPerSecond
	progs := genPrograms(cfg.seed, n)
	if err := references(progs); err != nil {
		return nil, err
	}
	printEnv(cfg, 1, cfg.workDir)
	var d *daemonProc
	var setups []float64
	reps := coldSetupReps
	if cfg.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		d, err = startDaemon(cfg.daemonBin, filepath.Join(cfg.workDir, fmt.Sprintf("cache-%d", i)), cfg.workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	c := newClient(d.base, 1, cfg.workers)
	res, err := measureCold(cfg, d, c, progs, setups)
	if serr := d.stop(); err == nil && serr != nil {
		return nil, serr
	}
	return res, err
}

func measureCold(cfg config, d *daemonProc, c *client, progs []program, setups []float64) (*result, error) {
	order := make([]int, len(progs))
	for i := range order {
		order[i] = i
	}
	if !cfg.trace {
		l, rs, err := closedLoop(c, progs, order, 1, 0, "cold")
		if err != nil {
			return nil, err
		}
		firstError(rs)
		rss, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		return e2eResult(l, setups, rss, "programs", "the crossinvd child"), nil
	}
	// Traced run: a third of the programs untraced, a third traced over
	// HTTP, and the rest (each run twice, layer by layer and whole)
	// in-process.
	third := len(order) / 3
	untraced, rs0, err := closedLoop(c, progs, order[:third], 1, 0, "cold")
	if err != nil {
		return nil, err
	}
	traced, rs, err := closedLoop(c, progs, order[third:2*third], 1, 0, "cold")
	if err != nil {
		return nil, err
	}
	firstError(append(rs0, rs...))
	lm := map[string]float64{}
	replyLayers(lm, rs)
	lm["trace.overhead_frac"] = 1 - ratio(traced.opsPerS(), untraced.opsPerS())
	rest := progs[2*third:]
	ip, err := coldLayers(lm, rest[:len(rest)/2], cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("tracing: untraced %.3f programs/s, traced %.3f programs/s\n", untraced.opsPerS(), traced.opsPerS())
	return layerResult(lm, untraced.attempted+traced.attempted+ip.attempted, untraced.failed+traced.failed+ip.failed, "serve-cold"), nil
}

// replyLayers derives the daemon-side metrics visible in the replies.
func replyLayers(lm map[string]float64, rs []reply) {
	var server, transport []float64
	var spec, misspecs float64
	n := 0
	for _, r := range rs {
		if r.err != nil {
			continue
		}
		n++
		server = append(server, float64(r.resp.DurationNs)/1e6)
		transport = append(transport, ms(r.rtt)-float64(r.resp.DurationNs)/1e6)
		if r.resp.Engine == "speccross" {
			spec++
		}
		misspecs += float64(r.resp.Misspecs)
	}
	lm["server_ms"] = bench.Median(server)
	lm["transport_ms"] = bench.Median(transport)
	lm["route.speccross_frac"] = ratio(spec, float64(n))
	lm["misspecs_per_req"] = ratio(misspecs, float64(n))
}
