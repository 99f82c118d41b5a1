package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/epoch"
	"repro/internal/hashfn"
	"repro/internal/obs"
)

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them; a layer a workload does not exercise reads 0 (see README.md).
var perLayer = []struct{ name, unit string }{
	{"faster.read_ns", "ns"},
	{"faster.upsert_ns", "ns"},
	{"faster.rmw_ns", "ns"},
	{"faster.read_miss_ns", "ns"},
	{"faster.pending_ratio", "ratio"},
	{"faster.pending_done_us", "us"},
	{"faster.complete_pending_ns", "ns"},
	{"hashfn.hash64_ns", "ns"},
	{"epoch.refresh_ns", "ns"},
	{"epoch.drain_p50_us", "us"},
	{"obs.counter_add_ns", "ns"},
	{"obs.flight_emit_ns", "ns"},
	{"storage.reads_per_op", "count"},
	{"storage.read_us", "us"},
	{"storage.write_us", "us"},
	{"storage.ckpt_write_ms", "ms"},
	{"storage.write_bytes_per_op", "B"},
	{"hlog.log_bytes_per_op", "B"},
	{"commit.prepare_ms", "ms"},
	{"commit.in_progress_ms", "ms"},
	{"commit.wait_pending_ms", "ms"},
	{"commit.wait_flush_ms", "ms"},
	{"commit.bytes", "B"},
	{"net.echo_rtt_us", "us"},
	{"net.echo_batch_rtt_us", "us"},
	{"kvserver.single_server_us", "us"},
	{"kvserver.batch_server_us", "us"},
	{"kvserver.exec_p50_us", "us"},
	{"kvserver.queue_p50_us", "us"},
	{"kvserver.replies_per_flush", "count"},
	{"kvserver.batch_depth_p50", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.gc_pause_ms", "ms/s"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage", "ratio"},
	{"error_rate", "ratio"},
}

// layerMetrics turns name -> value into the reported metric set, filling
// every per-layer metric the workload did not produce with 0.
func layerMetrics(vals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{vals[l.name], l.unit}
	}
	for k := range vals {
		if _, ok := m[k]; !ok {
			panic("perfbench: per-layer metric " + k + " is not in perLayer")
		}
	}
	return m
}

// standaloneLayers times the hash, epoch and metrics layers in tight loops
// over standalone objects, fed the workload's keys. Each figure is the median
// per-call time of five passes.
func standaloneLayers(ring []uint64, vals map[string]float64) {
	const n = 1 << 20
	keys := make([][8]byte, 4096)
	for i := range keys {
		binary.LittleEndian.PutUint64(keys[i][:], ring[i]&keyMask)
	}
	pass := func(f func() time.Duration) float64 {
		var xs []float64
		for i := 0; i < 5; i++ {
			xs = append(xs, float64(f())/n)
		}
		return median(xs)
	}
	vals["hashfn.hash64_ns"] = pass(func() time.Duration {
		var sum uint64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sum += hashfn.Hash64(keys[i&4095][:])
		}
		hashSink = sum
		return time.Since(t0)
	})
	em := epoch.New()
	g := em.Acquire()
	vals["epoch.refresh_ns"] = pass(func() time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			g.Refresh()
		}
		return time.Since(t0)
	})
	g.Release()
	c := obs.NewRegistry().Counter("perfbench_probe_total")
	vals["obs.counter_add_ns"] = pass(func() time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.Add(1)
		}
		return time.Since(t0)
	})
	fr := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	vals["obs.flight_emit_ns"] = pass(func() time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fr.Emit(obs.FlightPhase, 0, uint64(i), "", "", 1, 2)
		}
		return time.Since(t0)
	})
}

// hashSink keeps the hash loop's results live, so the compiler cannot drop
// the calls being timed.
var hashSink uint64

// flightLayers derives commit-phase and epoch-drain timings from flight
// events: each commit's FlightPhase transitions (tokens selects the commits of
// the measured window) and every FlightEpochDrain at or after fromNs.
func flightLayers(evs []obs.FlightEvent, tokens map[string]bool, fromNs int64, vals map[string]float64) {
	type marks struct {
		at   [5]int64
		seen [5]bool
	}
	byToken := map[string]*marks{}
	var drains []float64
	for _, e := range evs {
		switch e.Kind {
		case obs.FlightPhase:
			if !tokens[e.Token] || e.Arg2 > 4 {
				continue
			}
			mk := byToken[e.Token]
			if mk == nil {
				mk = &marks{}
				byToken[e.Token] = mk
			}
			mk.at[e.Arg2], mk.seen[e.Arg2] = e.AtNanos, true
		case obs.FlightEpochDrain:
			if e.AtNanos >= fromNs {
				drains = append(drains, float64(e.Arg2)/1e3)
			}
		}
	}
	// Phase codes: 1 prepare, 2 in-progress, 3 wait-pending, 4 wait-flush,
	// 0 rest. A phase lasts from the transition into it to the next one.
	var phases [4][]float64
	for _, mk := range byToken {
		next := [4]int{2, 3, 4, 0}
		for i, to := range next {
			from := i + 1
			if mk.seen[from] && mk.seen[to] {
				phases[i] = append(phases[i], float64(mk.at[to]-mk.at[from])/1e6)
			}
		}
	}
	vals["commit.prepare_ms"] = median(phases[0])
	vals["commit.in_progress_ms"] = median(phases[1])
	vals["commit.wait_pending_ms"] = median(phases[2])
	vals["commit.wait_flush_ms"] = median(phases[3])
	vals["epoch.drain_p50_us"] = median(drains)
}

// Frame sizes of the tcp-mixed requests and replies (protocol v3 with the
// 24-byte trace field the client always sends), averaged over the 50/50
// GET/SET mix: a single-op frame and a 32-op BATCH frame.
const (
	singleReqHdr, singleReqBody, singleReplyBody = 29, 16, 12
	batchReqHdr, batchReqBody, batchReplyBody    = 29, 804, 614
)

// echoServerMain serves the echo protocol: each request frame is
// u32 length | body, where the body's first 4 bytes give the reply body size;
// the reply is u32 length | that many bytes. It exits when stdin closes.
func echoServerMain() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(ln.Addr().String())
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck
		os.Exit(0)
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			os.Exit(1)
		}
		go func(c net.Conn) {
			defer c.Close()
			var hdr [4]byte
			body := make([]byte, 4096)
			reply := make([]byte, 4+4096)
			for {
				if _, err := io.ReadFull(c, hdr[:]); err != nil {
					return
				}
				n := binary.LittleEndian.Uint32(hdr[:])
				if n < 4 || n > uint32(len(body)) {
					return
				}
				if _, err := io.ReadFull(c, body[:n]); err != nil {
					return
				}
				rn := binary.LittleEndian.Uint32(body)
				if rn > 4096 {
					return
				}
				binary.LittleEndian.PutUint32(reply, rn)
				if _, err := c.Write(reply[:4+rn]); err != nil {
					return
				}
			}
		}(c)
	}
}

// child is a started helper process with its stdin held open.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	exited chan struct{} // closed once the process has exited and been reaped
}

func startChild(name string, args []string, out io.Writer) (*child, io.Reader, error) {
	cmd := exec.Command(name, args...)
	cmd.Stderr = stderr
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, err
	}
	var stdout io.Reader
	if out == nil {
		pr, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		stdout = pr
	} else {
		cmd.Stdout = out
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // a killed child's exit status says nothing
		close(c.exited)
	}()
	return c, stdout, nil
}

// stop kills the child and waits for it to exit.
func (c *child) stop() {
	c.stdin.Close()
	c.cmd.Process.Kill() //nolint:errcheck // it may have exited already
	<-c.exited
}

// echoRTT measures closed-loop round trips against the echo server, one
// connection sending single-op-sized frames and one sending BATCH-sized
// frames at the same time, as tcp-mixed's two connections do. It returns the
// median round trip of each, in microseconds.
func echoRTT(d time.Duration) (single, batch float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	ch, out, err := startChild(exe, []string{"echo-server"}, nil)
	if err != nil {
		return 0, 0, err
	}
	defer ch.stop()
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("echo server: %w", err)
	}
	addr = strings.TrimSpace(addr)
	var stop atomic.Bool
	var wg sync.WaitGroup
	hs := make([]hist, 2)
	errs := make([]error, 2)
	sizes := [2][3]int{{singleReqHdr, singleReqBody, singleReplyBody}, {batchReqHdr, batchReqBody, batchReplyBody}}
	for i := range hs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return 0, 0, err
		}
		defer c.Close()
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			hdrLen, bodyLen, replyLen := sizes[i][0], sizes[i][1], sizes[i][2]
			req := make([]byte, hdrLen+bodyLen)
			binary.LittleEndian.PutUint32(req, uint32(hdrLen-4+bodyLen))
			binary.LittleEndian.PutUint32(req[4:], uint32(replyLen))
			resp := make([]byte, 4+replyLen)
			for !stop.Load() {
				t0 := time.Now()
				// Header and body go out in two writes and the reply comes
				// back in two reads, as the kvserver client does it.
				if _, err := c.Write(req[:hdrLen]); err != nil {
					errs[i] = err
					return
				}
				if _, err := c.Write(req[hdrLen:]); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, resp[:4]); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, resp[4:]); err != nil {
					errs[i] = err
					return
				}
				hs[i].addDur(time.Since(t0))
			}
		}(i, c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	return hs[0].quantile(0.5) / 1e3, hs[1].quantile(0.5) / 1e3, nil
}
