package kvserver

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/obs"
)

// Server serves a CPR-enabled FASTER store over TCP. Each accepted
// connection runs a handler goroutine that owns one store session; idle
// connections still refresh their epoch entries periodically so in-flight
// commits can complete.
//
// The serving loop is allocation-free in steady state: frames are read into
// a per-connection reusable buffer, batch payloads are decoded arena-style
// (keys and values as sub-slices of the frame buffer), the session runs each
// op on those buffers without copying, and replies are gathered into a
// reusable buffer behind a coalescing writer.
type Server struct {
	ln net.Listener

	mu      sync.Mutex
	store   *faster.Store
	replica ReplicaBackend // non-nil while serving in replica mode
	conns   map[net.Conn]bool
	closed  bool
	wg      sync.WaitGroup

	// om holds the per-op latency-decomposition histogram handles, resolved
	// from the served store's registry (re-resolved on Promote).
	om opMetrics

	// AutoCommit, when positive, triggers a log-only commit at this cadence.
	AutoCommit time.Duration
	// IdleTimeout, when positive, reaps connections that go this long without
	// sending a frame: the connection is closed and its FASTER session
	// released, so abandoned clients stop pinning epoch entries and session
	// state. A reaped client reconnects into the same logical session via
	// Hello with its session ID. Zero disables reaping. Set before Serve.
	IdleTimeout time.Duration
	// Logger receives connection errors; defaults to the standard logger.
	Logger *log.Logger
	// ReplStats, when set, attaches a replication block to OpStats responses
	// (the replication server's progress on a primary, the replica's on a
	// replica). Set before Serve.
	ReplStats func() *ReplStats
	// Health, when set, serves the health engine's verdict for OpHealth and
	// attaches it to OpStats responses (wired to health.Engine.Verdict by
	// internal/node when its health engine is on). Set before Serve.
	Health func() *health.Verdict

	// CoalesceBytes / CoalesceOps bound per-connection write coalescing (the
	// MaxSyncLag idiom applied to reply frames): buffered replies are flushed
	// to the socket when either the byte or reply-count cap is exceeded, and
	// always before the connection blocks waiting for more requests — so a
	// reply's lag behind its request is bounded by the pipeline the client
	// itself keeps in flight. Zero means the defaults. Set before Serve.
	CoalesceBytes int
	CoalesceOps   int

	stopAuto chan struct{}
}

// Write-coalescing defaults: flush the reply buffer beyond 64KiB or 128
// reply frames, whichever trips first.
const (
	DefaultCoalesceBytes = 64 << 10
	DefaultCoalesceOps   = 128
)

func (s *Server) coalesceBytes() int {
	if s.CoalesceBytes > 0 {
		return s.CoalesceBytes
	}
	return DefaultCoalesceBytes
}

func (s *Server) coalesceOps() int {
	if s.CoalesceOps > 0 {
		return s.CoalesceOps
	}
	return DefaultCoalesceOps
}

// ReplicaBackend is the read-only view a replica-mode server serves from
// (implemented by repl.Replica). Its methods must be internally synchronized
// against the replica's installs.
type ReplicaBackend interface {
	// Read returns key's value in the replica's installed prefix.
	Read(key []byte) (val []byte, found bool, err error)
	// RecoveredPoint returns the installed CPR point for a session ID.
	RecoveredPoint(id string) uint64
	// Upstream returns the primary's client-facing address for redirects
	// (may be empty when unknown).
	Upstream() string
	// Store exposes the replica's underlying store (stats snapshots).
	Store() *faster.Store
}

// NewServer wraps an open store.
func NewServer(store *faster.Store) *Server {
	return &Server{
		store:    store,
		conns:    make(map[net.Conn]bool),
		om:       resolveOpMetrics(store.Metrics()),
		Logger:   log.New(os.Stderr, "kvserver: ", log.LstdFlags),
		stopAuto: make(chan struct{}),
	}
}

// NewReplicaServer serves the read-only replica rb: reads come from the
// installed committed prefix, writes are rejected with StatusRedirect, and a
// Hello with a known session ID reports that session's installed CPR point.
// Promote later switches the same server to full primary service.
func NewReplicaServer(rb ReplicaBackend) *Server {
	s := NewServer(rb.Store())
	s.replica = rb
	return s
}

// Promote switches a replica-mode server to primary service over store (the
// replica's store after faster.Store.Promote). Open replica connections are
// closed so their clients reconnect into real sessions and learn their
// prefix-consistent CPR points; the auto-committer starts if configured.
func (s *Server) Promote(store *faster.Store) {
	s.mu.Lock()
	wasReplica := s.replica != nil
	s.store = store
	s.om = resolveOpMetrics(store.Metrics())
	s.replica = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	closed := s.closed
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if wasReplica && !closed && s.AutoCommit > 0 {
		s.wg.Add(1)
		go s.autoCommitter()
	}
}

// getStore returns the currently served store (swapped by Promote).
func (s *Server) getStore() *faster.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// opMetrics returns the decomposition histogram handles for the currently
// served store (swapped by Promote).
func (s *Server) opMetrics() opMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.om
}

// replicaBackend returns the replica backend, or nil in primary mode.
func (s *Server) replicaBackend() ReplicaBackend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Serve accepts connections on ln until Close, which closes ln (at once if
// the server is already closed).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	replica := s.replica != nil
	s.mu.Unlock()
	if s.AutoCommit > 0 && !replica {
		// A replica never commits on its own; Promote starts the committer.
		s.wg.Add(1)
		go s.autoCommitter()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Close stops the listener and waits for every in-flight handler to drain:
// handlers notice the closed flag at their next frame boundary, flush any
// coalesced replies, and close their own connections — a reply frame is
// never torn mid-write by shutdown. Reads blocked mid-frame are woken via an
// expired read deadline (tearing a *read* is safe; nothing was promised to
// the peer yet).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now) //nolint:errcheck
	}
	s.mu.Unlock()
	close(s.stopAuto)
	s.wg.Wait()
}

func (s *Server) autoCommitter() {
	defer s.wg.Done()
	defer s.dumpFlightOnPanic()
	t := time.NewTicker(s.AutoCommit)
	defer t.Stop()
	for {
		select {
		case <-s.stopAuto:
			return
		case <-t.C:
			// Log-only fold-over commits at the configured cadence; skipped
			// while another commit is still in flight.
			s.getStore().Commit(faster.CommitOptions{}) //nolint:errcheck
		}
	}
}

// idlePoll is how often an idle connection refreshes its session's epoch
// (and checks for server shutdown).
const idlePoll = 20 * time.Millisecond

// helloTimeout bounds how long a fresh connection may sit silent before its
// Hello; without it a dialed-but-mute client would pin a handler forever.
const helloTimeout = 30 * time.Second

// connState is a connection's reusable serving state: buffered reader,
// coalescing writer, the frame/reply scratch buffers the zero-allocation
// loop reuses across requests, and the pending-read completion scratch the
// persistent readCB closure delivers into.
type connState struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	frame []byte // reusable frame read buffer (readFrameBuf)
	reply []byte // reusable reply build buffer (single-op and batch frames)

	// unflushed counts per-op replies written into bw since the last flush
	// (the op-count half of the coalescing cap; batch frames count each
	// entry).
	unflushed int

	// Pending cold-read completion scratch: readCB (created once per
	// connection) copies the value here and execOp consumes it.
	pendVal  []byte
	pendSt   faster.Status
	pendDone bool
	readCB   func(val []byte, st faster.Status)
}

// flushConn pushes coalesced replies to the socket and records the flush in
// the coalescing counters.
func (s *Server) flushConn(cs *connState, om opMetrics) error {
	if cs.bw.Buffered() == 0 {
		cs.unflushed = 0
		return nil
	}
	cs.conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if err := cs.bw.Flush(); err != nil {
		return err
	}
	om.coalescedFlushes.Inc()
	om.coalescedReplies.Add(uint64(cs.unflushed))
	cs.unflushed = 0
	return nil
}

// waitReadable blocks until the connection has readable bytes, polling at
// idlePoll so the session (if any) keeps refreshing its epoch entry —
// otherwise an idle client would stall every commit — and so server shutdown
// (or the stop condition) is noticed promptly. The deadline only ever gates
// the peek, which consumes nothing on timeout. A positive cap bounds the
// total wait.
func (s *Server) waitReadable(cs *connState, sess *faster.Session, cap time.Duration, stop func() bool) error {
	var deadline time.Time
	if cap > 0 {
		deadline = time.Now().Add(cap)
	}
	for {
		if s.isClosed() || (stop != nil && stop()) {
			return net.ErrClosed
		}
		cs.conn.SetReadDeadline(time.Now().Add(idlePoll)) //nolint:errcheck
		if _, err := cs.br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if sess != nil {
					sess.Refresh()
					sess.CompletePending(false)
				}
				if cap > 0 && time.Now().After(deadline) {
					return err
				}
				continue
			}
			return err // connection closed
		}
		return nil
	}
}

// dumpFlightOnPanic, deferred by every goroutine that runs ops or commits,
// persists the flight recorder's rings as the "flight-panic" checkpoint
// artifact before letting a panic continue, so the last moments before the
// crash survive for `fasterctl flight -dump`.
func (s *Server) dumpFlightOnPanic() {
	r := recover()
	if r == nil {
		return
	}
	if err := s.getStore().DumpFlight("panic"); err != nil {
		s.Logger.Printf("flight dump: %v", err)
	} else {
		s.Logger.Printf("flight recorder dumped to checkpoint artifact flight-panic")
	}
	panic(r)
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.dumpFlightOnPanic()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	cs := &connState{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 32<<10),
	}
	cs.bw = bufio.NewWriterSize(conn, s.coalesceBytes())
	cs.readCB = func(v []byte, st faster.Status) {
		cs.pendVal = append(cs.pendVal[:0], v...)
		cs.pendSt = st
		cs.pendDone = true
	}

	// The first frame must be Hello, binding the connection to a session.
	if err := s.waitReadable(cs, nil, helloTimeout, nil); err != nil {
		return
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout)) //nolint:errcheck
	op, _, payload, err := readFrameBuf(cs.br, &cs.frame)
	if err != nil || op != OpHello {
		return
	}
	clientID, rest, err := takeString(payload)
	if err != nil {
		return
	}
	// Version negotiation: a v2+ client appends its highest supported proto
	// byte after its client ID; a v1 client's payload ends at the string, so
	// rest is empty. The server takes min(offered, ProtoV3) and echoes it at
	// the end of the response (which a v1 client never looks at), landing
	// both sides on the highest protocol they share. Only after this
	// exchange may either side send trace-flagged or BATCH frames.
	proto := ProtoV1
	if len(rest) > 0 {
		proto = rest[0]
		if proto > ProtoV3 {
			proto = ProtoV3
		}
		if proto < ProtoV1 {
			proto = ProtoV1
		}
	}
	id := string(clientID) // copy: payload aliases the reused frame buffer
	if rb := s.replicaBackend(); rb != nil {
		s.handleReplica(cs, rb, id, proto, len(rest) > 0)
		return
	}
	var sess *faster.Session
	var cprPoint uint64
	if len(id) > 0 {
		sess, cprPoint = s.getStore().ContinueSession(id)
	} else {
		sess = s.getStore().StartSession()
	}
	defer sess.StopSession()
	resp := appendU64([]byte{StatusOK}, cprPoint)
	resp = appendString(resp, []byte(sess.ID()))
	if len(rest) > 0 {
		resp = append(resp, proto)
	}
	if err := writeFrame(cs.bw, OpHello, resp); err != nil {
		return
	}
	if err := s.flushConn(cs, s.opMetrics()); err != nil {
		return
	}

	var at obs.ActiveTrace // per-connection scratch; armed per request by Begin
	for {
		// Coalescing invariant: replies may lag their requests by at most
		// CoalesceOps frames / CoalesceBytes bytes while more requests are
		// already buffered (a pipelining client), and never lag past a quiet
		// boundary — the buffer is always flushed before blocking for input.
		if cs.br.Buffered() == 0 {
			if err := s.flushConn(cs, s.opMetrics()); err != nil {
				return
			}
			if err := s.waitReadable(cs, sess, s.IdleTimeout, nil); err != nil {
				var ne net.Error
				if s.IdleTimeout > 0 && errors.As(err, &ne) && ne.Timeout() && !s.isClosed() {
					// Idle past the cap: reap the connection. The deferred
					// close + StopSession release the socket and the session's
					// epoch entry; the client's session state survives for a
					// reconnecting Hello.
					s.opMetrics().idleReaps.Inc()
					s.Logger.Printf("conn %v: reaped after %v idle (session %s released)",
						conn.RemoteAddr(), s.IdleTimeout, sess.ID())
				}
				return
			}
		} else if cs.unflushed >= s.coalesceOps() || cs.bw.Buffered() >= s.coalesceBytes() {
			if err := s.flushConn(cs, s.opMetrics()); err != nil {
				return
			}
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		op, tc, payload, err := readFrameBuf(cs.br, &cs.frame)
		if err != nil {
			return // connection closed or protocol error
		}
		if err := s.dispatch(cs, sess, op, tc, payload, &at); err != nil {
			s.Logger.Printf("conn %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

// dispatch wraps one request in a trace: the root span opens at frame receipt
// and closes after the response write, with queue/decode/exec/durwait/resp
// child spans recorded along the way. With no tracer configured the scratch
// stays disarmed and every span call is a single pointer test.
func (s *Server) dispatch(cs *connState, sess *faster.Session, op byte, tc obs.TraceContext, payload []byte, at *obs.ActiveTrace) error {
	store := s.getStore()
	rt := store.RequestTracer()
	om := s.opMetrics()
	tRecv := time.Now().UnixNano()
	rt.Begin(at, tc, opName(op), sess.ID())
	if tc.IssuedUnixNanos > 0 {
		iss := tc.IssuedUnixNanos
		if iss > tRecv {
			iss = tRecv // client/server clock skew: clamp to zero length
		}
		at.Span(obs.SpanQueue, iss, tRecv, 0, 0, "")
		om.queueNs.ObserveValue(uint64(tRecv - iss))
	}
	err := s.dispatchOp(cs, store, om, sess, op, payload, at, tRecv)
	rt.Finish(at, tRecv, time.Now().UnixNano())
	return err
}

// replyHdr is the response frame prefix reserved in place by beginReply:
// u32 frame len | u8 opcode.
const replyHdr = 5

// beginReply starts a response frame in the connection's reusable reply
// buffer: the header is reserved in place (respond patches it) and status is
// the first payload byte.
func (cs *connState) beginReply(status byte) []byte {
	return append(cs.reply[:0], 0, 0, 0, 0, 0, status)
}

// respond finishes a frame started by beginReply and writes it into the
// coalescing buffer as one contiguous write (a separate stack header would
// escape through the io.Writer and allocate), recording it as a resp-write
// span.
func (s *Server) respond(cs *connState, at *obs.ActiveTrace, op byte, frame []byte) error {
	t0 := time.Now().UnixNano()
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	frame[4] = op
	_, err := cs.bw.Write(frame)
	cs.reply = frame[:0]
	cs.unflushed++
	at.Span(obs.SpanRespWrite, t0, time.Now().UnixNano(), uint64(len(frame)-replyHdr), 0, "")
	return err
}

func (s *Server) dispatchOp(cs *connState, store *faster.Store, om opMetrics, sess *faster.Session, op byte, payload []byte, at *obs.ActiveTrace, tRecv int64) error {
	conn := cs.conn
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	// One epoch refresh per frame, however many ops it carries, keeps the
	// session's view of the CPR phase current so commits progress.
	sess.Refresh()
	switch op {
	case OpBatch:
		return s.execBatch(cs, store, om, sess, payload, at, tRecv)

	case OpGet, OpSet, OpRMW, OpDelete:
		key, rest, err := takeString(payload)
		if err != nil {
			return err
		}
		var val []byte
		if op == OpSet || op == OpRMW {
			if val, _, err = takeValue(rest); err != nil {
				return err
			}
		}
		tDec := time.Now().UnixNano()
		at.Span(obs.SpanDecode, tRecv, tDec, uint64(store.ShardOfKey(key)), 0, "")
		// A single-op frame runs the BATCH path's per-op code, with the
		// reply built in the reused reply buffer.
		status, out, serial := s.execOp(cs, sess, op, key, val)
		reply := cs.beginReply(status)
		if op == OpGet {
			reply = appendValue(reply, out)
		} else {
			reply = appendU64(reply, serial)
		}
		tExec := time.Now().UnixNano()
		at.Span(obs.SpanExec, tDec, tExec, sess.Serial(), 0, "")
		om.execNs.ObserveValue(uint64(tExec - tDec))
		return s.respond(cs, at, op, reply)

	case OpCommit:
		if len(payload) < 1 {
			return fmt.Errorf("commit: missing flags")
		}
		// Push earlier pipelined replies out before a potentially long wait.
		if err := s.flushConn(cs, om); err != nil {
			return err
		}
		withIndex := payload[0] != 0
		token, err := store.Commit(faster.CommitOptions{WithIndex: withIndex})
		if err == faster.ErrCommitInProgress {
			// Piggyback on the commit already in flight.
			token = ""
		} else if err != nil {
			return s.respond(cs, at, OpCommit, appendU64(cs.beginReply(StatusError), 0))
		}
		// Drive until some commit completes and this session is at rest.
		tWait := time.Now().UnixNano()
		var status byte = StatusOK
		var point uint64
	commitWait:
		for {
			if token != "" {
				if res, ok := store.TryResult(token); ok {
					point = res.Serials[sess.ID()]
					if res.Err != nil {
						status = StatusError
					}
					break commitWait
				}
			} else if store.Phase() == faster.Rest {
				point = sess.Serial()
				break commitWait
			}
			sess.Refresh()
			sess.CompletePending(false)
		}
		tDone := time.Now().UnixNano()
		if token == "" {
			token = sess.CommittedToken() // piggybacked: name the covering commit
		}
		at.Span(obs.SpanDurWait, tWait, tDone, point, sess.CommittedSerial(), token)
		om.durwaitNs.ObserveValue(uint64(tDone - tWait))
		return s.respond(cs, at, OpCommit, appendU64(cs.beginReply(status), point))

	case OpWaitDurable:
		// Block until the session's committed point t_i covers everything this
		// connection has issued, riding whatever commit (auto-committer or a
		// peer's explicit commit) gets there first. This is the durability
		// handshake a traced client uses to expose durwait as a distinct hop.
		if err := s.flushConn(cs, om); err != nil {
			return err
		}
		target := sess.Serial()
		tWait := time.Now().UnixNano()
		deadline := time.Now().Add(25 * time.Second)
		for sess.CommittedSerial() < target {
			if time.Now().After(deadline) || s.isClosed() {
				// Timed out — or the server is shutting down and the covering
				// commit may never arrive. Either way the client gets a
				// complete, well-formed error frame, never a torn one.
				return s.respond(cs, at, OpWaitDurable,
					appendString(appendU64(cs.beginReply(StatusError), sess.CommittedSerial()), nil))
			}
			sess.Refresh()
			sess.CompletePending(false)
			time.Sleep(100 * time.Microsecond)
		}
		tDone := time.Now().UnixNano()
		token := sess.CommittedToken()
		at.Span(obs.SpanDurWait, tWait, tDone, target, sess.CommittedSerial(), token)
		om.durwaitNs.ObserveValue(uint64(tDone - tWait))
		resp := appendU64(cs.beginReply(StatusOK), sess.CommittedSerial())
		resp = appendString(resp, []byte(token))
		return s.respond(cs, at, OpWaitDurable, resp)

	case OpTrace:
		return s.writeTraceDump(cs.bw, store, payload)

	case OpStats:
		return s.writeStats(cs.bw, store)

	case OpFlight:
		return s.writeFlight(cs.bw, store, payload)

	case OpHealth:
		return s.writeHealth(cs.bw)
	}
	return fmt.Errorf("unknown opcode %d", op)
}

// execOp runs one GET, SET, RMW or DELETE on the connection's session — the
// per-op code of single-op and BATCH frames alike. It returns the reply
// status plus, for a GET, the value (valid until the session's next
// operation) or, for a write, the serial the session assigned it. Cold-read
// completions arrive through the connection's persistent callback scratch,
// so the steady-state path allocates nothing.
func (s *Server) execOp(cs *connState, sess *faster.Session, op byte, key, val []byte) (status byte, out []byte, serial uint64) {
	var st faster.Status
	switch op {
	case OpGet:
		cs.pendDone = false
		out, st = sess.Read(key, cs.readCB)
		if st == faster.Pending {
			sess.CompletePending(true)
			if !cs.pendDone {
				return StatusError, nil, 0
			}
			out, st = cs.pendVal, cs.pendSt
		}
		return wireStatus(st), out, 0
	case OpSet:
		st = sess.Upsert(key, val)
	case OpRMW:
		st = sess.RMW(key, val)
	case OpDelete:
		st = sess.Delete(key)
	}
	if st == faster.Pending {
		sess.CompletePending(true)
		st = faster.Ok
	}
	return wireStatus(st), nil, sess.Serial()
}

// wireStatus maps a store status to its reply status byte.
func wireStatus(st faster.Status) byte {
	switch st {
	case faster.Ok:
		return StatusOK
	case faster.NotFound:
		return StatusNotFound
	}
	return StatusError
}

// execBatch serves one BATCH frame: ops are decoded arena-style from the
// frame buffer, scattered to shards through the session's hash router in
// issue order, and their replies gathered in the same order into the reused
// reply buffer. The session runs each op on the frame's buffers, so the
// in-memory steady state allocates nothing per op. A reply run exceeding the
// coalescing byte cap is emitted as its own self-contained frame, bounding
// buffered reply memory for huge batches.
func (s *Server) execBatch(cs *connState, store *faster.Store, om opMetrics, sess *faster.Session, payload []byte, at *obs.ActiveTrace, tRecv int64) error {
	r, err := newBatchReader(payload)
	if err != nil {
		return err
	}
	om.batches.Inc()
	om.batchDepth.ObserveValue(uint64(r.count))
	tBatch := time.Now().UnixNano()
	at.Span(obs.SpanDecode, tRecv, tBatch, uint64(r.count), 0, "")
	byteCap := s.coalesceBytes()
	reply := startBatchReply(cs.reply)
	count := 0 // entries in the current reply run
	sent := 0  // reply frames already emitted (split batches)
	for i := 0; i < r.count; i++ {
		op, seq, key, val, err := r.next()
		if err != nil {
			cs.reply = reply[:0]
			return err
		}
		t0 := time.Now().UnixNano()
		status, v, serial := s.execOp(cs, sess, op, key, val)
		if op == OpGet {
			reply = appendBatchValueResult(reply, seq, status, v)
		} else {
			reply = appendBatchSerialResult(reply, seq, status, serial)
		}
		t1 := time.Now().UnixNano()
		om.execNs.ObserveValue(uint64(t1 - t0))
		if at.Remaining() > 1 {
			// Per-op exec spans while the trace has room; the SpanBatch
			// window below summarizes the whole run regardless.
			at.Span(obs.SpanExec, t0, t1, sess.Serial(), 0, "")
		}
		count++
		if len(reply) >= byteCap {
			finishBatchReply(reply, count)
			if _, err := cs.bw.Write(reply); err != nil {
				cs.reply = reply[:0]
				return err
			}
			cs.unflushed += count
			sent++
			reply = startBatchReply(reply)
			count = 0
		}
	}
	tEnd := time.Now().UnixNano()
	at.Span(obs.SpanBatch, tBatch, tEnd, uint64(r.count), uint64(len(reply)), "")
	if count > 0 || sent == 0 {
		t0 := time.Now().UnixNano()
		finishBatchReply(reply, count)
		_, err := cs.bw.Write(reply)
		cs.unflushed += count
		at.Span(obs.SpanRespWrite, t0, time.Now().UnixNano(), uint64(len(reply)), 0, "")
		cs.reply = reply[:0]
		return err
	}
	cs.reply = reply[:0]
	return nil
}

// writeTraceDump sends the OpTrace response: the request tracer's retained
// slow-request span trees plus global replication spans as JSON.
func (s *Server) writeTraceDump(w io.Writer, store *faster.Store, payload []byte) error {
	n := 16
	if len(payload) >= 2 {
		n = int(binary.LittleEndian.Uint16(payload))
	}
	rt := store.RequestTracer()
	if rt == nil {
		return writeFrame(w, OpTrace, appendValue([]byte{StatusError},
			[]byte("request tracer disabled")))
	}
	buf, err := json.Marshal(rt.Dump(n))
	if err != nil {
		return writeFrame(w, OpTrace, appendValue([]byte{StatusError}, nil))
	}
	return writeFrame(w, OpTrace, appendValue([]byte{StatusOK}, buf))
}

// writeFlight sends the OpFlight response: the store's flight-recorder
// contents as an obs.FlightDump JSON document, filtered to events whose
// commit token matches the requested token when one is given.
func (s *Server) writeFlight(w io.Writer, store *faster.Store, payload []byte) error {
	var token string
	if len(payload) > 0 {
		tok, _, err := takeString(payload)
		if err != nil {
			return err
		}
		token = string(tok)
	}
	fr := store.Flight()
	if fr == nil {
		return writeFrame(w, OpFlight, appendValue([]byte{StatusError},
			[]byte("flight recorder disabled")))
	}
	events, dropped := fr.Events()
	if token != "" {
		events = obs.FilterFlightEvents(events, token)
	}
	dump := obs.FlightDump{WallStartNanos: fr.WallStart(), Dropped: dropped, Events: events}
	buf, err := json.Marshal(dump)
	if err != nil {
		return writeFrame(w, OpFlight, appendValue([]byte{StatusError}, nil))
	}
	return writeFrame(w, OpFlight, appendValue([]byte{StatusOK}, buf))
}

// writeHealth serves the health engine's verdict as JSON, or an error frame
// when no engine is wired.
func (s *Server) writeHealth(w io.Writer) error {
	if s.Health == nil {
		return writeFrame(w, OpHealth, appendValue([]byte{StatusError},
			[]byte("health engine disabled")))
	}
	buf, err := json.Marshal(s.Health())
	if err != nil {
		return writeFrame(w, OpHealth, appendValue([]byte{StatusError}, nil))
	}
	return writeFrame(w, OpHealth, appendValue([]byte{StatusOK}, buf))
}

// writeStats marshals and sends the OpStats response for store.
func (s *Server) writeStats(w io.Writer, store *faster.Store) error {
	lg := store.Log()
	snap := StatsSnapshot{
		V:          StatsVersion,
		Version:    store.Version(),
		Phase:      store.Phase().String(),
		LogTail:    lg.Tail(),
		LogDurable: lg.Durable(),
		LogHead:    lg.Head(),
		Sessions:   store.SessionCount(),
		Metrics:    store.Metrics().Snapshot(),
	}
	if n := store.NumShards(); n > 1 {
		snap.Shards = make([]ShardStats, n)
		for i := 0; i < n; i++ {
			sl := store.ShardLog(i)
			snap.Shards[i] = ShardStats{
				Version:    store.ShardVersion(i),
				Phase:      store.ShardPhase(i).String(),
				LogTail:    sl.Tail(),
				LogDurable: sl.Durable(),
				LogHead:    sl.Head(),
			}
		}
	}
	if s.ReplStats != nil {
		snap.Repl = s.ReplStats()
	}
	if s.Health != nil {
		snap.Health = s.Health()
	}
	snap.SessionLags = store.SessionLags()
	snap.Restore = store.RestoreStatus()
	buf, err := json.Marshal(snap)
	if err != nil {
		return writeFrame(w, OpStats, appendValue([]byte{StatusError}, nil))
	}
	return writeFrame(w, OpStats, appendValue([]byte{StatusOK}, buf))
}

// handleReplica runs a connection against the replica backend: reads are
// served from the installed committed prefix; writes get StatusRedirect with
// the primary's address. The loop ends (closing the connection) when the
// server is promoted, so clients reconnect into real sessions. Replies are
// written straight through (no coalescing): replica read traffic is not
// pipelined by the fallback client, and promotion must not strand buffered
// replies.
func (s *Server) handleReplica(cs *connState, rb ReplicaBackend, clientID string, proto byte, sentProto bool) {
	conn := cs.conn
	resp := appendU64([]byte{StatusOK}, rb.RecoveredPoint(clientID))
	resp = appendString(resp, []byte(clientID))
	if sentProto {
		resp = append(resp, proto)
	}
	if err := writeFrame(conn, OpHello, resp); err != nil {
		return
	}
	promoted := func() bool { return s.replicaBackend() == nil }
	for {
		if err := s.waitReadable(cs, nil, 0, promoted); err != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		op, _, payload, err := readFrameBuf(cs.br, &cs.frame)
		if err != nil {
			return
		}
		if promoted() {
			return // promoted mid-stream: force the client to reconnect
		}
		if err := s.dispatchReplica(conn, rb, op, payload); err != nil {
			s.Logger.Printf("replica conn %v: %v", conn.RemoteAddr(), err)
			return
		}
	}
}

func (s *Server) dispatchReplica(conn net.Conn, rb ReplicaBackend, op byte, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	switch op {
	case OpGet:
		key, _, err := takeString(payload)
		if err != nil {
			return err
		}
		status, val := replicaRead(rb, key)
		return writeFrame(conn, OpGet, appendValue([]byte{status}, val))
	case OpBatch:
		return s.replicaBatch(conn, rb, payload)
	case OpSet, OpRMW, OpDelete, OpCommit, OpWaitDurable:
		// Writes (and durability waits on them) belong on the primary; tell
		// the client where to go.
		return writeFrame(conn, op, appendString([]byte{StatusRedirect}, []byte(rb.Upstream())))
	case OpStats:
		return s.writeStats(conn, rb.Store())
	case OpFlight:
		return s.writeFlight(conn, rb.Store(), payload)
	case OpTrace:
		return s.writeTraceDump(conn, rb.Store(), payload)
	case OpHealth:
		return s.writeHealth(conn)
	}
	return fmt.Errorf("unknown opcode %d", op)
}

// replicaBatch serves a BATCH frame in replica mode: a read-only batch is
// served from the installed prefix; a batch containing any write is
// redirected whole — mixing served reads with redirected writes would tear
// the client's pipeline in half.
func (s *Server) replicaBatch(conn net.Conn, rb ReplicaBackend, payload []byte) error {
	scan, err := newBatchReader(payload)
	if err != nil {
		return err
	}
	for i := 0; i < scan.count; i++ {
		op, _, _, _, err := scan.next()
		if err != nil {
			return err
		}
		if op != OpGet {
			return writeFrame(conn, OpBatch,
				appendString([]byte{StatusRedirect}, []byte(rb.Upstream())))
		}
	}
	r, err := newBatchReader(payload)
	if err != nil {
		return err
	}
	frame := startBatchReply(nil)
	for i := 0; i < r.count; i++ {
		_, seq, key, _, err := r.next()
		if err != nil {
			return err
		}
		status, val := replicaRead(rb, key)
		frame = appendBatchValueResult(frame, seq, status, val)
	}
	finishBatchReply(frame, r.count)
	_, err = conn.Write(frame)
	return err
}

// replicaRead serves one GET from the replica's installed prefix, returning
// the reply status and the value (nil unless StatusOK).
func replicaRead(rb ReplicaBackend, key []byte) (byte, []byte) {
	val, found, err := rb.Read(key)
	switch {
	case err != nil:
		return StatusError, nil
	case !found:
		return StatusNotFound, nil
	}
	return StatusOK, val
}
