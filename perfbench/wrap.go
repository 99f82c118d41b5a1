package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// ioStats counts and (when timing is on) times calls into one storage layer.
// The benchmark hands the wrappers below to faster.Config, so every byte the
// store writes and every device read it issues passes through them.
type ioStats struct {
	calls, bytes atomic.Int64
	timing       atomic.Bool
	mu           sync.Mutex
	h            hist
}

func (s *ioStats) observe(n int, t0 time.Time) {
	s.calls.Add(1)
	s.bytes.Add(int64(n))
	if !t0.IsZero() {
		d := time.Since(t0)
		s.mu.Lock()
		s.h.addDur(d)
		s.mu.Unlock()
	}
}

func (s *ioStats) start() time.Time {
	if s.timing.Load() {
		return time.Now()
	}
	return time.Time{}
}

// takeHist returns the timings observed so far and starts a new set.
func (s *ioStats) takeHist() hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.h
	s.h = hist{}
	return h
}

// countingDevice wraps the HybridLog's MemDevice.
type countingDevice struct {
	*storage.MemDevice
	reads, writes ioStats
}

func (d *countingDevice) ReadAt(p []byte, off int64) (int, error) {
	t0 := d.reads.start()
	n, err := d.MemDevice.ReadAt(p, off)
	d.reads.observe(n, t0)
	return n, err
}

func (d *countingDevice) WriteAt(p []byte, off int64) (int, error) {
	t0 := d.writes.start()
	n, err := d.MemDevice.WriteAt(p, off)
	d.writes.observe(n, t0)
	return n, err
}

// countingCheckpoints wraps the MemCheckpointStore; one observation is one
// artifact, timed from Create to Close.
type countingCheckpoints struct {
	*storage.MemCheckpointStore
	writes ioStats
}

func (c *countingCheckpoints) Create(name string) (io.WriteCloser, error) {
	t0 := time.Now()
	w, err := c.MemCheckpointStore.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingWriter{WriteCloser: w, c: c, t0: t0}, nil
}

type countingWriter struct {
	io.WriteCloser
	c  *countingCheckpoints
	t0 time.Time
	n  int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.n += n
	return n, err
}

func (w *countingWriter) Close() error {
	err := w.WriteCloser.Close()
	t0 := w.t0
	if !w.c.writes.timing.Load() {
		t0 = time.Time{}
	}
	w.c.writes.observe(w.n, t0)
	return err
}
