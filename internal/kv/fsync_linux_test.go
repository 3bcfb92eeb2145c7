//go:build linux

package kv

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// The AIO path is what runs on the hosts the durability suite runs on;
// a host without it falls back to f.Sync, which the other tests cover.
func aioOrSkip(t *testing.T) *aioSyncer {
	t.Helper()
	q := aioQueue()
	if q == nil {
		t.Skip("no Linux AIO or eventfd here: syncFile falls back to f.Sync")
	}
	return q
}

// TestSyncFileCompletesThroughPoller pins what the AIO detour is for: the
// completion eventfd is pollable (a blocking descriptor would pin a P
// in read(2), the very thing being avoided), concurrent syncs of
// different files all complete through it, and none leaves a waiter
// behind.
func TestSyncFileCompletesThroughPoller(t *testing.T) {
	q := aioOrSkip(t)
	if err := q.eventfd.SetReadDeadline(time.Time{}); err != nil {
		t.Fatalf("completion eventfd is not served by the netpoller: %v", err)
	}
	dir := t.TempDir()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := os.Create(filepath.Join(dir, string(rune('a'+i))))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			for k := 0; k < 20; k++ {
				if _, err := f.Write([]byte("record")); err != nil {
					t.Error(err)
					return
				}
				if submitted, err := q.fsync(f); !submitted || err != nil {
					t.Errorf("aio fsync: submitted=%v err=%v", submitted, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	q.mu.Lock()
	left := len(q.waiters)
	q.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d waiters left registered after every sync returned", left)
	}
}

// TestSyncFileErrors: a sync the kernel will not queue (a descriptor
// with no fsync, a closed file) falls through to f.Sync and comes back
// as its error, not as success.
func TestSyncFileErrors(t *testing.T) {
	aioOrSkip(t)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	if err := syncFile(w); err == nil {
		t.Fatal("syncing a pipe succeeded")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := syncFile(f); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("syncing a closed file: %v, want os.ErrClosed", err)
	}
}
