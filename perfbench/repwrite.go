package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/replica"
	"simurgh/internal/server"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// rep-write is clients writing to a replicated group: a primary and one
// backup at quorum 1 with the default pipelined shipping, reached through
// the group's address list. Every write waits for the backup's ack, so
// replica shipping, group commit, quorum wait and backup apply do most of
// the work. One batch in ten holds namespace requests, which take the
// primary's exclusive op gate.
const (
	rwFiles     = 16
	rwFileSize  = 256 << 10
	rwBlock     = 4 << 10
	rwBlocks    = rwFileSize / rwBlock
	rwBatch     = 8
	rwVolume    = 128 << 20
	rwNSEach    = 10 // one batch in rwNSEach is a namespace batch
	rwDir       = "/rw"
	rwNSDir     = "/ns"
	rwJoinLimit = 30 * time.Second
)

type repWrite struct {
	serving
	pfs      *core.FS
	pnode    *replica.Node
	bnode    *replica.Node
	bfs      atomic.Pointer[core.FS] // the backup's restored volume
	remote   *client.Remote
	sessions []*client.Session
	fds      [][]fsapi.FD
	names    [][]string
	// ledger holds, per client, the last acknowledged version of every
	// block: ledger[ci][file*rwBlocks+block]. Bytes at a position are a
	// function of (path, offset, version).
	ledger [][]uint64
	nsNext []uint64
	rngs   []*rand.Rand
}

func newRepWrite() *repWrite {
	w := &repWrite{}
	for ci := 0; ci < nClients; ci++ {
		var names []string
		for f := 0; f < rwFiles; f++ {
			names = append(names, fmt.Sprintf("%s/c%d-f%02d", rwDir, ci, f))
		}
		w.names = append(w.names, names)
	}
	return w
}

func (w *repWrite) params() string {
	return fmt.Sprintf("backups=1 quorum=1 pipelined files_per_client=%d file_size=%d block=%d batch=%d ns_batches=1/%d volume=%d",
		rwFiles, rwFileSize, rwBlock, rwBatch, rwNSEach, rwVolume)
}

func (w *repWrite) setup(seed int64) error {
	pln, err := listen()
	if err != nil {
		return err
	}
	bln, err := listen()
	if err != nil {
		pln.Close()
		return err
	}
	paddr, baddr := pln.Addr().String(), bln.Addr().String()
	pdev := pmem.New(rwVolume)
	pdev.Prefault()
	if w.pfs, err = core.Format(pdev, fsapi.Root, core.Options{}); err != nil {
		pln.Close()
		bln.Close()
		return err
	}
	w.pnode = replica.NewPrimary(w.pfs, replica.Config{
		Advertise: paddr,
		Snapshot: func(wr io.Writer) error {
			_, err := pdev.WriteTo(wr)
			return err
		},
	})
	if _, err := w.serve(server.Config{FS: w.pfs, Replica: w.pnode}, pln); err != nil {
		bln.Close()
		return err
	}
	w.bfs.Store(nil)
	w.bnode = replica.NewBackup(replica.Config{
		Advertise:   baddr,
		PrimaryAddr: paddr,
		Restore: func(img []byte) (fsapi.FileSystem, error) {
			d, err := pmem.ReadImage(bytes.NewReader(img))
			if err != nil {
				return nil, err
			}
			fs, _, err := core.Mount(d, core.Options{})
			if err != nil {
				return nil, err
			}
			w.bfs.Store(fs)
			return fs, nil
		},
	})
	if _, err := w.serve(server.Config{Replica: w.bnode}, bln); err != nil {
		return err
	}
	// The join is complete once the backup's snapshot is restored and its
	// epoch matches; before that a quorum wait would stall.
	for deadline := time.Now().Add(rwJoinLimit); w.pnode.Backups() < 1 || w.bnode.Epoch() != w.pnode.Epoch(); {
		if time.Now().After(deadline) {
			return fmt.Errorf("backup did not join within %v", rwJoinLimit)
		}
		time.Sleep(time.Millisecond)
	}

	if w.remote, err = client.Dial(paddr+","+baddr, client.Options{}); err != nil {
		return err
	}
	pop, err := w.remote.Attach(fsapi.Root)
	if err != nil {
		return err
	}
	for _, dir := range []string{rwDir, rwNSDir} {
		if err := pop.Mkdir(dir, 0o755); err != nil {
			return err
		}
	}
	buf := make([]byte, rwFileSize)
	for _, names := range w.names {
		for _, name := range names {
			fillPattern(buf, versionKey(name, 0), 0)
			fd, err := pop.Create(name, 0o644)
			if err != nil {
				return fmt.Errorf("create %s: %w", name, err)
			}
			if _, err := pop.Write(fd, buf); err != nil {
				return fmt.Errorf("write %s: %w", name, err)
			}
			if err := pop.Close(fd); err != nil {
				return err
			}
		}
	}
	pop.Detach()

	w.sessions, w.fds, w.ledger, w.nsNext, w.rngs = nil, nil, nil, nil, nil
	for ci := 0; ci < nClients; ci++ {
		c, err := w.remote.Attach(fsapi.Root)
		if err != nil {
			return err
		}
		sess := c.(*client.Session)
		w.sessions = append(w.sessions, sess)
		fds := make([]fsapi.FD, rwFiles)
		for f, name := range w.names[ci] {
			if fds[f], err = sess.Open(name, fsapi.ORdwr, 0); err != nil {
				return fmt.Errorf("open %s: %w", name, err)
			}
		}
		w.fds = append(w.fds, fds)
		w.ledger = append(w.ledger, make([]uint64, rwFiles*rwBlocks))
		w.nsNext = append(w.nsNext, 0)
		w.rngs = append(w.rngs, clientRand(seed, ci))
	}
	return nil
}

func (w *repWrite) close() {
	for _, s := range w.sessions {
		s.Detach()
	}
	w.sessions = nil
	if w.remote != nil {
		w.remote.Close()
		w.remote = nil
	}
	w.stop()
	if w.bnode != nil {
		w.bnode.Close()
		w.bnode = nil
	}
	if w.pnode != nil {
		w.pnode.Close()
		w.pnode = nil
	}
}

// run submits batches of one kind each: nine in ten hold 4 KiB pwrites at
// random aligned offsets of the client's own files, one in ten a
// symlink/rename/unlink sequence over short-lived names in a shared
// directory.
func (w *repWrite) run(ci int, rec *recorder, stop func() bool) error {
	sess, fds, rng, ledger := w.sessions[ci], w.fds[ci], w.rngs[ci], w.ledger[ci]
	reqs := make([]wire.Request, rwBatch)
	slots := make([]int, rwBatch)
	versions := make([]uint64, rwBatch)
	bufs := make([][]byte, rwBatch)
	for j := range bufs {
		bufs[j] = make([]byte, rwBlock)
	}
	for !stop() {
		rec.begin()
		if rng.Intn(rwNSEach) == 0 {
			w.nsBatch(ci, rec, sess, reqs)
			rec.end()
			continue
		}
		// Versions count up per block; a block picked twice in one batch
		// takes the later version, as the batch executes in order.
		for j := range reqs {
			f, b := rng.Intn(rwFiles), rng.Intn(rwBlocks)
			slot := f*rwBlocks + b
			v := ledger[slot] + 1
			for k := 0; k < j; k++ {
				if slots[k] == slot {
					v = max(v, versions[k]+1)
				}
			}
			slots[j], versions[j] = slot, v
			off := uint64(b) * rwBlock
			fillPattern(bufs[j], versionKey(w.names[ci][f], v), off)
			reqs[j] = wire.Request{Op: wire.OpPwrite, FD: fds[f], Off: off, Data: bufs[j]}
		}
		t := time.Now()
		resps, err := sess.Submit(reqs)
		rec.batch(clsWrite, t, time.Now(), len(reqs), resps, err)
		if err != nil {
			rec.end()
			return err
		}
		for j := range resps {
			switch {
			case resps[j].Code != wire.CodeOK:
				// The block may hold either version: stop checking it.
				ledger[slots[j]] = unknownVersion
			case resps[j].N != rwBlock:
				rec.problem("pwrite wrote %d bytes", resps[j].N)
			default:
				ledger[slots[j]] = versions[j]
				rec.written += rwBlock
			}
		}
		rec.end()
	}
	return nil
}

// unknownVersion marks a block whose last write failed.
const unknownVersion = ^uint64(0)

// nsBatch creates three symlinks in the shared directory, renames two,
// and unlinks all three: eight requests that need no descriptor and leave
// the directory as they found it.
func (w *repWrite) nsBatch(ci int, rec *recorder, sess *client.Session, reqs []wire.Request) {
	var n [3]string
	for i := range n {
		n[i] = fmt.Sprintf("%s/c%d-%d", rwNSDir, ci, w.nsNext[ci])
		w.nsNext[ci]++
	}
	target := w.names[ci][0]
	reqs[0] = wire.Request{Op: wire.OpSymlink, Path: target, Path2: n[0]}
	reqs[1] = wire.Request{Op: wire.OpSymlink, Path: target, Path2: n[1]}
	reqs[2] = wire.Request{Op: wire.OpSymlink, Path: target, Path2: n[2]}
	reqs[3] = wire.Request{Op: wire.OpRename, Path: n[0], Path2: n[0] + "r"}
	reqs[4] = wire.Request{Op: wire.OpRename, Path: n[1], Path2: n[1] + "r"}
	reqs[5] = wire.Request{Op: wire.OpUnlink, Path: n[0] + "r"}
	reqs[6] = wire.Request{Op: wire.OpUnlink, Path: n[1] + "r"}
	reqs[7] = wire.Request{Op: wire.OpUnlink, Path: n[2]}
	t := time.Now()
	resps, err := sess.Submit(reqs)
	rec.batch(clsMeta, t, time.Now(), len(reqs), resps, err)
}

func (w *repWrite) snap() layerSnap {
	return layerSnap{
		core:    w.pfs.Stats(),
		servers: []map[string]float64{scrape(w.srvs[0].WriteMetrics)},
		primary: scrape(w.pnode.WriteMetrics),
		backup:  scrape(w.bnode.WriteMetrics),
		client:  w.remote.Stats(),
	}
}

func (w *repWrite) sample() map[string]float64 {
	p := scrape(w.pnode.WriteMetrics)
	return map[string]float64{
		"server.queue_len":         scrape(w.srvs[0].WriteMetrics)["simurgh_server_queue_len"],
		"replica.ack_window":       p["simurgh_replica_ack_window"],
		"replica.ship_lag_entries": p["simurgh_replica_ship_lag_entries"],
	}
}

func (w *repWrite) setTracing(on bool) {
	w.pfs.Obs().SetSamplePeriod(samplePeriod(on))
}

// check waits until the backup has applied the primary's whole log, then
// checks every block on the backup (and the primary) against the ledger
// and that the shared namespace directory is empty again.
func (w *repWrite) check(res *result) error {
	head := w.pnode.Seq()
	for deadline := time.Now().Add(rwJoinLimit); w.bnode.Seq() != head; {
		if time.Now().After(deadline) {
			return fmt.Errorf("backup applied %d of %d log entries", w.bnode.Seq(), head)
		}
		time.Sleep(time.Millisecond)
	}
	res.note("backup caught up at log seq %d (primary commit floor %d)", head, w.pnode.CommitFloor())
	for _, side := range []struct {
		name string
		fs   *core.FS
	}{{"backup", w.bfs.Load()}, {"primary", w.pfs}} {
		if err := w.verify(res, side.name, side.fs); err != nil {
			return err
		}
	}
	var live uint64 = nClients * rwFiles * rwFileSize
	res.add(groupE2E, "space_amp", float64(allocatedBytes(w.pfs))/float64(live), "ratio", nClients*rwFiles)
	return nil
}

func (w *repWrite) verify(res *result, side string, fs *core.FS) error {
	cl, err := fs.Attach(fsapi.Root)
	if err != nil {
		return err
	}
	defer cl.Detach()
	got := make([]byte, rwFileSize)
	want := make([]byte, rwBlock)
	var unknown int
	for ci, names := range w.names {
		for f, name := range names {
			fd, err := cl.Open(name, fsapi.ORdonly, 0)
			if err != nil {
				return fmt.Errorf("%s: open %s: %w", side, name, err)
			}
			n, err := cl.Pread(fd, got, 0)
			cl.Close(fd)
			if err != nil {
				return fmt.Errorf("%s: read %s: %w", side, name, err)
			}
			if n != rwFileSize {
				res.problem("%s: %s holds %d bytes, want %d", side, name, n, rwFileSize)
				continue
			}
			for b := 0; b < rwBlocks; b++ {
				v := w.ledger[ci][f*rwBlocks+b]
				if v == unknownVersion {
					unknown++
					continue
				}
				off := uint64(b) * rwBlock
				fillPattern(want, versionKey(name, v), off)
				if !bytes.Equal(got[off:off+rwBlock], want) {
					res.problem("%s: %s block %d does not hold acknowledged version %d", side, name, b, v)
				}
			}
		}
	}
	if unknown > 0 {
		res.note("%s: %d blocks unchecked after failed writes", side, unknown)
	}
	ents, err := cl.ReadDir(rwNSDir)
	if err != nil {
		return fmt.Errorf("%s: readdir %s: %w", side, rwNSDir, err)
	}
	if len(ents) != 0 {
		res.problem("%s: %s holds %d entries after every name was unlinked", side, rwNSDir, len(ents))
	}
	return nil
}
