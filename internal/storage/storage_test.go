package storage

import (
	"bytes"
	"io"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemDeviceRoundTrip(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	msg := []byte("hello hybridlog")
	if _, err := d.WriteAt(msg, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
	if d.Size() != 100+int64(len(msg)) {
		t.Fatalf("size = %d", d.Size())
	}
}

// TestMemDeviceAppendGrowth: extending writes keep earlier bytes, read a
// skipped gap as zeros, and an appending log does not reallocate the device
// on every write.
func TestMemDeviceAppendGrowth(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	if _, err := d.WriteAt([]byte("head"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("tail"), 1000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1004)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got[:4]) != "head" || string(got[1000:]) != "tail" || !bytes.Equal(got[4:1000], make([]byte, 996)) {
		t.Fatalf("device contents after growth: %q...%q", got[:4], got[1000:])
	}
	off := int64(1004)
	page := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.WriteAt(page, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(page))
	})
	if allocs > 0.25 {
		t.Fatalf("appending writes allocate %.2f times per write, want amortized growth", allocs)
	}
	if d.Size() != off {
		t.Fatalf("size = %d, want %d", d.Size(), off)
	}
}

func TestMemDeviceReadPastEnd(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	if _, err := d.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("expected error reading empty device")
	}
}

func TestMemDeviceClosed(t *testing.T) {
	d := NewMemDevice()
	d.Close()
	if _, err := d.WriteAt([]byte("x"), 0); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := d.ReadAt(make([]byte, 1), 0); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMemDeviceConcurrentDisjointWrites(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := []byte{byte(i)}
			if _, err := d.WriteAt(buf, int64(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got := make([]byte, n)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("byte %d = %d", i, got[i])
		}
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.log")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.WriteAt([]byte("abc"), 10); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if _, err := d.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("got %q", got)
	}
	if d.Size() != 13 {
		t.Fatalf("size = %d, want 13", d.Size())
	}
}

func TestPoolWriteThenRead(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	p := NewPool(4, 16)
	defer p.Close()

	done := make(chan error, 1)
	p.Submit(IORequest{Dev: d, Buf: []byte("async"), Off: 0, Write: true,
		Done: func(n int, err error) { done <- err }})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	p.Submit(IORequest{Dev: d, Buf: buf, Off: 0,
		Done: func(n int, err error) { done <- err }})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(buf) != "async" {
		t.Fatalf("got %q", buf)
	}
}

func TestPoolCloseDrains(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	p := NewPool(2, 128)
	var mu sync.Mutex
	completed := 0
	for i := 0; i < 100; i++ {
		p.Submit(IORequest{Dev: d, Buf: []byte{1}, Off: int64(i), Write: true,
			Done: func(int, error) { mu.Lock(); completed++; mu.Unlock() }})
	}
	p.Close()
	if completed != 100 {
		t.Fatalf("completed = %d, want 100", completed)
	}
	if p.InFlight() != 0 {
		t.Fatalf("in-flight = %d after close", p.InFlight())
	}
}

func testStoreRoundTrip(t *testing.T, s CheckpointStore) {
	t.Helper()
	w, err := s.Create("meta/info.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("meta/info.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if string(data) != `{"v":1}` {
		t.Fatalf("got %q", data)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "meta/info.json" {
		t.Fatalf("list = %v", names)
	}
	if err := s.Remove("meta/info.json"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("meta/info.json"); err == nil {
		t.Fatal("open after remove should fail")
	}
	// ReadArtifact sizes its buffer from the store's reader: no growth.
	big := bytes.Repeat([]byte("x"), 100_000)
	if err := WriteArtifact(s, "big", big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(s, "big")
	if err != nil || !bytes.Equal(got, big) || cap(got) != len(big) {
		t.Fatalf("ReadArtifact: len %d cap %d err %v, want exactly %d bytes", len(got), cap(got), err, len(big))
	}
}

func TestMemCheckpointStore(t *testing.T) { testStoreRoundTrip(t, NewMemCheckpointStore()) }

func TestDirCheckpointStore(t *testing.T) {
	s, err := NewDirCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStoreRoundTrip(t, s)
}

func TestQuickMemDeviceWriteReadAnyOffset(t *testing.T) {
	d := NewMemDevice()
	defer d.Close()
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		if _, err := d.WriteAt(data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := d.ReadAt(got, int64(off)); err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
