package repl

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Server is the primary-side replication endpoint: it accepts replica
// connections and, per connection, streams the durable HybridLog tail of
// every shard plus each completed commit's checkpoint artifacts, announcing
// the commit only after everything it depends on has been shipped. Replicas
// therefore install commits whose inputs are fully local — a half-received
// commit is simply never announced, which is what makes a primary crash
// mid-ship leave replicas at the previous committed prefix.
type Server struct {
	store *faster.Store

	// ClientAddr is the primary's client-facing (kvserver) address,
	// advertised to replicas so their write redirects point somewhere useful.
	ClientAddr string
	// Logger receives connection errors; defaults to the standard logger.
	Logger *log.Logger

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]chan string // per-conn completed-commit notifications
	closed bool
	wg     sync.WaitGroup

	replicas     *obs.Gauge
	shippedBytes *obs.Counter
	shippedArts  *obs.Counter
	announced    *obs.Counter
	verifyFails  *obs.Counter
	replwaitNs   *obs.Histogram
}

// NewServer wraps an open (primary) store. Commits completed from here on
// are pushed to connected replicas; a replica connecting later catches up
// from the latest completed commit.
func NewServer(store *faster.Store) *Server {
	reg := store.Metrics()
	s := &Server{
		store:        store,
		Logger:       log.New(os.Stderr, "repl: ", log.LstdFlags),
		conns:        make(map[net.Conn]chan string),
		replicas:     reg.Gauge("repl_replicas"),
		shippedBytes: reg.Counter("repl_shipped_log_bytes_total"),
		shippedArts:  reg.Counter("repl_shipped_artifacts_total"),
		announced:    reg.Counter("repl_commits_announced_total"),
		verifyFails:  reg.Counter("repl_artifact_verify_failures_total"),
		// Shared with kvserver's decomposition family: how long a locally
		// durable commit waited to be announced to a replica.
		replwaitNs: reg.Histogram("faster_op_replwait_ns"),
	}
	reg.SetHelp("repl_replicas", "Replica connections currently attached to this primary.")
	reg.SetHelp("repl_commits_announced_total",
		"Commit announcements shipped to replicas; commits completing without announcements fires the health engine's repl-lag-growing detector.")
	store.OnCommit(func(res faster.CommitResult) { s.broadcast(res.Token) })
	return s
}

// broadcast queues a completed commit token on every connection. A full
// queue is fine to drop into: the streamer falls back to LatestCommitToken,
// and installing the newest commit subsumes skipped intermediates.
func (s *Server) broadcast(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.conns {
		select {
		case ch <- token:
		default:
		}
	}
}

// Serve accepts replica connections on ln until Close, which closes ln (at
// once if the server is already closed).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
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
		ch := make(chan string, 64)
		s.mu.Lock()
		s.conns[conn] = ch
		s.mu.Unlock()
		s.replicas.Set(int64(s.Replicas()))
		s.wg.Add(1)
		go s.handle(conn, ch)
	}
}

// Replicas reports the number of connected replicas.
func (s *Server) Replicas() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// ReplStats describes this primary for a kvserver stats snapshot.
func (s *Server) ReplStats() *kvserver.ReplStats {
	return &kvserver.ReplStats{
		Role:           "primary",
		Replicas:       s.Replicas(),
		AppliedVersion: s.latestVersion(),
	}
}

// Close stops accepting, closes replica connections, and waits for
// streamers.
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
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// handle runs one replica connection: welcome, then the ship loop.
func (s *Server) handle(conn net.Conn, notify chan string) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.replicas.Set(int64(s.Replicas()))
		conn.Close()
	}()
	if err := s.stream(conn, notify); err != nil {
		s.Logger.Printf("replica %v: %v", conn.RemoteAddr(), err)
	}
}

func (s *Server) stream(conn net.Conn, notify chan string) error {
	conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	op, payload, err := readFrame(conn)
	if err != nil || op != opHello {
		return fmt.Errorf("bad hello: %v", err)
	}
	_, rest, err := takeU32(payload) // appliedVersion (informational)
	if err != nil {
		return err
	}
	shards, rest, err := takeU32(rest)
	if err != nil {
		return err
	}
	if int(shards) != s.store.NumShards() {
		writeFrame(conn, opError, appendString(nil, //nolint:errcheck
			[]byte(fmt.Sprintf("shard count mismatch: replica %d, primary %d", shards, s.store.NumShards()))))
		return fmt.Errorf("shard count mismatch (replica %d, primary %d)", shards, s.store.NumShards())
	}
	n := s.store.NumShards()
	sent := make([]uint64, n)
	welcome := appendString(nil, []byte(s.ClientAddr))
	welcome = appendU32(welcome, s.latestVersion())
	welcome = appendU32(welcome, uint32(n))
	for i := 0; i < n; i++ {
		have, r2, err := takeU64(rest)
		if err != nil {
			return err
		}
		rest = r2
		lg := s.store.ShardLog(i)
		start := have
		// If this primary's own recovery (or promotion) rewrote log state,
		// the replica must re-receive that range: its pre-crash copy lacks
		// the invalidation of records the recovery rolled back.
		if rs := s.store.ResyncFrom(i); rs != 0 && rs < start {
			start = rs
		}
		if d := lg.Durable(); start > d {
			start = d // replica claims bytes we never made durable: re-ship
		}
		if b := lg.Begin(); start < b {
			start = b
		}
		if start < hlog.FirstAddress {
			start = hlog.FirstAddress
		}
		sent[i] = start
		welcome = appendU64(welcome, lg.Begin())
		welcome = appendU64(welcome, start)
		welcome = appendU64(welcome, lg.Durable())
	}
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if err := writeFrame(conn, opWelcome, welcome); err != nil {
		return err
	}

	// A reader goroutine only to notice the peer going away (the replica
	// sends nothing after hello).
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		conn.Read(buf)                    //nolint:errcheck
	}()

	shipped := make(map[string]bool) // artifacts this connection already sent
	announcedTok := ""
	// Catch the replica up to the newest completed commit immediately.
	pending := ""
	if tok, ok := s.store.LatestCommitToken(); ok {
		pending = tok
	}
	heartbeat := time.NewTicker(100 * time.Millisecond)
	defer heartbeat.Stop()
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()

	for {
		progress, err := s.shipTail(conn, sent, 0)
		if err != nil {
			return err
		}
		if pending != "" && pending != announcedTok {
			if err := s.shipCommit(conn, pending, sent, shipped); err != nil {
				return err
			}
			announcedTok = pending
			pending = ""
		}
		select {
		case <-readerDone:
			return nil // replica hung up
		case tok := <-notify:
			pending = tok
		case <-heartbeat.C:
			if err := s.sendTail(conn); err != nil {
				return err
			}
		case <-poll.C:
			if !progress {
				// Nothing new; blocking a little keeps idle streams cheap.
				select {
				case <-readerDone:
					return nil
				case tok := <-notify:
					pending = tok
				case <-heartbeat.C:
					if err := s.sendTail(conn); err != nil {
						return err
					}
				case <-poll.C:
				}
			}
		}
	}
}

// latestVersion is the version of the newest completed commit (0 when none).
func (s *Server) latestVersion() uint32 {
	tok, ok := s.store.LatestCommitToken()
	if !ok {
		return 0
	}
	info, err := s.store.CommitShipInfo(tok)
	if err != nil {
		return 0
	}
	return info.Version
}

// shipTail streams every shard's durable log bytes past the sent watermarks,
// up to upTo when nonzero (else everything durable).
func (s *Server) shipTail(conn net.Conn, sent []uint64, upTo uint64) (bool, error) {
	progress := false
	for i := range sent {
		lg := s.store.ShardLog(i)
		limit := lg.Durable()
		if upTo != 0 && upTo < limit {
			limit = upTo
		}
		for sent[i] < limit {
			n := limit - sent[i]
			if n > chunkSize {
				n = chunkSize
			}
			buf := make([]byte, n)
			if err := lg.ReadRaw(sent[i], buf); err != nil {
				return progress, fmt.Errorf("read log shard %d @%d: %w", i, sent[i], err)
			}
			payload := appendU32(nil, uint32(i))
			payload = appendU64(payload, sent[i])
			payload = append(payload, buf...)
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
			if err := writeFrame(conn, opChunk, payload); err != nil {
				return progress, err
			}
			sent[i] += n
			s.shippedBytes.Add(n)
			progress = true
		}
	}
	return progress, nil
}

// shipCommit ships everything commit token depends on — log coverage to each
// shard's end, then the commit's artifacts — and finally announces it.
func (s *Server) shipCommit(conn net.Conn, token string, sent []uint64, shipped map[string]bool) error {
	tShip0 := time.Now().UnixNano()
	info, err := s.store.CommitShipInfo(token)
	if err != nil {
		return fmt.Errorf("ship info %s: %w", token, err)
	}
	if info.Kind == faster.Snapshot {
		// Snapshot commits reopen the captured region for in-place updates;
		// later flushes of that region are not version-consistent, so a
		// replica applying them would leave the committed prefix. Fold-over
		// (the default) has no such window. See DESIGN.md.
		s.Logger.Printf("warning: shipping snapshot commit %s; replica prefix consistency requires fold-over commits", token)
	}
	// A completed commit's range is durable, so shipping everything durable
	// necessarily covers every shard's floor.
	if _, err := s.shipTail(conn, sent, 0); err != nil {
		return err
	}
	for i := range sent {
		if sent[i] < info.ShardFloors[i] {
			return fmt.Errorf("commit %s needs shard %d coverage to %d, durable stops at %d",
				token, i, info.ShardFloors[i], sent[i])
		}
	}
	var artifactBytes uint64
	for _, name := range info.Artifacts {
		if shipped[name] {
			continue
		}
		data, err := storage.ReadArtifact(s.store.Checkpoints(), name)
		if err != nil {
			return fmt.Errorf("artifact %s: %w", name, err)
		}
		// Verify the checksum envelope before shipping: a locally corrupted
		// artifact must fail the ship (the commit is never announced and the
		// replica stays at the previous prefix) rather than propagate garbage.
		// The framed bytes themselves go on the wire verbatim, so the replica
		// re-verifies on its own restart.
		if _, verr := storage.DecodeArtifact(data); verr != nil {
			s.verifyFails.Inc()
			return fmt.Errorf("artifact %s failed verification, not shipping: %w", name, verr)
		}
		for off := 0; off == 0 || off < len(data); off += artifactChunk {
			end := off + artifactChunk
			if end > len(data) {
				end = len(data)
			}
			payload := appendString(nil, []byte(name))
			payload = appendU32(payload, uint32(len(data)))
			payload = appendU32(payload, uint32(off))
			payload = append(payload, data[off:end]...)
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
			if err := writeFrame(conn, opArtifact, payload); err != nil {
				return err
			}
		}
		shipped[name] = true
		s.shippedArts.Inc()
		artifactBytes += uint64(len(data))
	}
	tShipped := time.Now().UnixNano()
	s.store.Flight().Emit(obs.FlightReplShip, -1, uint64(info.Version), token, "",
		artifactBytes, uint64(len(info.Artifacts)))
	// Global (not per-request) spans: a slow request's durwait span and these
	// share the commit token, which is the cross-link fasterctl trace uses.
	s.store.RequestTracer().EmitGlobal(obs.SpanReplShip, token, tShip0, tShipped,
		artifactBytes, uint64(info.Version))
	ann := appendString(nil, []byte(token))
	ann = appendU32(ann, info.Version)
	ann = append(ann, byte(info.Kind))
	ann = appendU32(ann, uint32(len(info.ShardEnds)))
	for i := range info.ShardEnds {
		ann = appendU64(ann, info.ShardEnds[i])
		ann = appendU64(ann, info.ShardFloors[i])
	}
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if err := writeFrame(conn, opCommit, ann); err != nil {
		return err
	}
	s.announced.Inc()
	tAnn := time.Now().UnixNano()
	s.store.Flight().Emit(obs.FlightCommitAnnounced, -1, uint64(info.Version), token, "", 0, 0)
	s.store.RequestTracer().EmitGlobal(obs.SpanReplAnnounce, token, tShipped, tAnn,
		uint64(info.Version), 0)
	s.replwaitNs.ObserveValue(uint64(tAnn - tShip0))
	return nil
}

// sendTail sends the heartbeat/lag frame.
func (s *Server) sendTail(conn net.Conn) error {
	n := s.store.NumShards()
	payload := appendU32(nil, s.latestVersion())
	payload = appendU32(payload, uint32(n))
	for i := 0; i < n; i++ {
		payload = appendU64(payload, s.store.ShardLog(i).Durable())
	}
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	return writeFrame(conn, opTail, payload)
}
