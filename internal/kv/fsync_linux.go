//go:build linux

package kv

import (
	"os"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// syncFile is f.Sync() without a P held while the disk works.
//
// fsync(2) is a blocking system call, and a goroutine in one keeps its
// P until the runtime's monitor thread takes it back two of its ticks
// later — up to 20 ms once the monitor has backed off. While the WALs
// of a process hold every P that way nothing else in it runs: with
// four durable servers on two Ps (the benchmark's durable-mix,
// brb-load -spawn) reads sat out the writers' syncs often enough for
// their tail to follow the disk's latency (DESIGN.md §11). So the sync
// is handed to the kernel through Linux native AIO (IOCB_CMD_FSYNC,
// Linux 4.18: vfs_fsync on a kernel worker, the same durability) and
// its completion comes back through an eventfd the netpoller watches:
// the flusher parks on a channel like any goroutine waiting for the
// network. Syncs of different files still overlap in the kernel, which
// a cap on concurrent blocking fsyncs — the other way to keep a P free
// — gives up.
//
// Wherever the kernel does not take the request (no AIO, an older
// kernel, a full queue) the blocking f.Sync() runs instead.
func syncFile(f *os.File) error {
	if q := aioQueue(); q != nil {
		if submitted, err := q.fsync(f); submitted {
			return err
		}
	}
	return f.Sync()
}

// aioDepth is the AIO context's capacity: fsyncs in flight in the
// process, one per WAL at most. Past it io_submit refuses and syncFile
// falls back.
const aioDepth = 128

// aiocb and aioEvent are struct iocb and struct io_event of
// linux/aio_abi.h. Both are 64-bit fields throughout except where
// shown; key and rwFlags swap places on big-endian machines and are
// zero here.
type aiocb struct {
	data      uint64 // returned in the completion event
	key       uint32
	rwFlags   uint32
	opcode    uint16
	reqprio   int16
	fildes    uint32
	buf       uint64
	nbytes    uint64
	offset    int64
	reserved2 uint64
	flags     uint32
	resfd     uint32
}

type aioEvent struct {
	data uint64
	obj  uint64
	res  int64 // the operation's result: 0 or -errno
	res2 int64
}

// The kernel reads and writes these by layout.
var (
	_ [64]byte = [unsafe.Sizeof(aiocb{})]byte{}
	_ [32]byte = [unsafe.Sizeof(aioEvent{})]byte{}
)

const (
	iocbCmdFsync  = 2 // IOCB_CMD_FSYNC
	iocbFlagResfd = 1 // IOCB_FLAG_RESFD: signal resfd on completion
)

// aioSyncer is the process's AIO context, its completion eventfd and
// the flushers waiting on it.
type aioSyncer struct {
	ctx uintptr // aio_context_t
	// eventfd is read through the netpoller. efd is the same descriptor
	// for iocbs: os.File.Fd would put it back in blocking mode.
	eventfd *os.File
	efd     uint32

	mu      sync.Mutex
	lastID  uint64
	waiters map[uint64]chan int64 // by aiocb.data; receives aioEvent.res
}

// aioQueue returns the process's syncer, set up on first use, or nil
// where AIO or eventfd is not to be had.
var aioQueue = sync.OnceValue(func() *aioSyncer {
	q := &aioSyncer{waiters: map[uint64]chan int64{}}
	if _, _, e := syscall.Syscall(syscall.SYS_IO_SETUP, aioDepth, uintptr(unsafe.Pointer(&q.ctx)), 0); e != 0 {
		return nil
	}
	fd, _, e := syscall.Syscall(syscall.SYS_EVENTFD2, 0, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		_, _, _ = syscall.Syscall(syscall.SYS_IO_DESTROY, q.ctx, 0, 0)
		return nil
	}
	q.efd = uint32(fd)
	q.eventfd = os.NewFile(fd, "kv-aio-eventfd") // non-blocking, so pollable
	go q.reap()
	return q
})

// fsync submits an fsync of f and waits for its result. submitted is
// false when the request never reached the kernel's queue: nothing was
// synced and the caller must sync some other way.
func (q *aioSyncer) fsync(f *os.File) (submitted bool, err error) {
	rc, err := f.SyscallConn()
	if err != nil {
		return false, nil
	}
	done := make(chan int64, 1)
	q.mu.Lock()
	q.lastID++
	id := q.lastID
	q.waiters[id] = done
	q.mu.Unlock()

	var errno syscall.Errno
	// Control keeps the descriptor open across the submit; the kernel
	// holds its own reference to the file from then on.
	cerr := rc.Control(func(fd uintptr) {
		cb := &aiocb{data: id, opcode: iocbCmdFsync, fildes: uint32(fd), flags: iocbFlagResfd, resfd: q.efd}
		cbs := [1]*aiocb{cb}
		_, _, errno = syscall.Syscall(syscall.SYS_IO_SUBMIT, q.ctx, 1, uintptr(unsafe.Pointer(&cbs[0])))
		runtime.KeepAlive(cb)
	})
	if cerr != nil || errno != 0 {
		q.mu.Lock()
		delete(q.waiters, id)
		q.mu.Unlock()
		return false, nil
	}
	if res := <-done; res < 0 {
		return true, &os.PathError{Op: "sync", Path: f.Name(), Err: syscall.Errno(-res)}
	}
	return true, nil
}

// reap hands completions to their waiters, for the life of the
// process. A failure here would leave writers waiting for ever, and
// none is possible short of a corrupted context, so it panics.
func (q *aioSyncer) reap() {
	var counter [8]byte
	var events [aioDepth]aioEvent
	var noWait syscall.Timespec
	for {
		// Parks until a completion bumps the eventfd; reading resets it.
		// Completions that land after the drain below bump it again.
		if _, err := q.eventfd.Read(counter[:]); err != nil {
			panic("kv: aio eventfd: " + err.Error())
		}
		for {
			n, _, e := syscall.Syscall6(syscall.SYS_IO_GETEVENTS, q.ctx, 0, aioDepth,
				uintptr(unsafe.Pointer(&events[0])), uintptr(unsafe.Pointer(&noWait)), 0)
			if e == syscall.EINTR {
				continue
			}
			if e != 0 {
				panic("kv: io_getevents: " + e.Error())
			}
			if n == 0 {
				break
			}
			q.mu.Lock()
			for _, ev := range events[:n] {
				q.waiters[ev.data] <- ev.res // buffered: never blocks
				delete(q.waiters, ev.data)
			}
			q.mu.Unlock()
		}
	}
}
