// Fixtures for the stickyerr analyzer's kv-side targets. The path suffix
// internal/kv makes wal/Durable/Commit/writeSnapshot call sites here
// match the real package's, including the unexported methods only
// callable in-package.
package kv

type wal struct{ err error }

func (w *wal) buffer(op byte, key string) (uint64, error) { return 0, w.err }

func (w *wal) wait(seq uint64) error { return w.err }

func (w *wal) rotate() error { return w.err }

func (w *wal) close() error { return w.err }

func writeSnapshot(path string) error { return nil }

type Commit struct {
	w   *wal
	seq uint64
}

func (c Commit) Wait() error { return c.w.wait(c.seq) }

type Durable struct{ w wal }

func (d *Durable) Stage(key string, value []byte, ver uint64, dead bool) (Commit, error) {
	seq, err := d.w.buffer(1, key)
	return Commit{w: &d.w, seq: seq}, err
}

func (d *Durable) SetVersion(key string, value []byte, ver uint64) (bool, error) {
	c, err := d.Stage(key, value, ver, false)
	if err == nil {
		err = c.Wait()
	}
	return true, err
}

func (d *Durable) Close() error { return d.w.close() }

func (d *Durable) purge(key string) {
	d.w.buffer(2, key) // want `error discarded`
}

func (d *Durable) shutdown() {
	defer d.w.close()         // want `error unobservable`
	_ = writeSnapshot("snap") // want `assigned to _`
}

func (d *Durable) spin() {
	go d.w.rotate() // want `error unobservable`
}

// applyUnchecked acks a write the WAL may have refused: the dropped
// Stage error is the fail-stop the server depends on.
func (d *Durable) applyUnchecked(key string) error {
	c, _ := d.Stage(key, nil, 1, false) // want `assigned to _`
	return c.Wait()
}

func (d *Durable) ackLater(c Commit) {
	go c.Wait() // want `error unobservable`
}

func (d *Durable) flushAll(key string) error {
	if _, err := d.SetVersion(key, nil, 1); err != nil {
		return err
	}
	return writeSnapshot("snap")
}

func (d *Durable) bestEffort(key string) {
	//brb:allow stickyerr best-effort purge: the WAL is already fail-stopped
	_, _ = d.w.buffer(2, key)
}
