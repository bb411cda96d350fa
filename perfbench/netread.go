package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/server"
	"simurgh/internal/shard"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// net-read is clients reading over the wire through the shard router: two
// standalone servers behind a 2-shard hash map, Zipfian picks over a 2 MiB
// file set that fits in L2. The wire, client, router and the server's
// inline read path do most of the work and core little; one batch in ten
// rewrites blocks with their own content through the server's worker path.
const (
	nrServers   = 2
	nrDirs      = 16
	nrPerDir    = 8
	nrFiles     = nrDirs * nrPerDir
	nrFileSize  = 16 << 10
	nrBlock     = 4 << 10
	nrBatch     = 8
	nrVolume    = 64 << 20
	nrTheta     = 0.99
	nrWriteEach = 10 // one batch in nrWriteEach is a write batch
)

type netRead struct {
	serving
	fss      []*core.FS
	router   *client.Router
	sessions []*client.RoutedSession
	fds      [][]fsapi.FD // per client, per file
	rngs     []*rand.Rand
	zipf     *zipf
	perm     []int // Zipf rank → file; see balancedPerm
	names    []string
	shardOf  []uint32
	// content holds every file's bytes, which never change: writes put
	// back the same bytes. Tests corrupt it to prove reads are checked.
	content [][]byte
}

func newNetRead() *netRead {
	w := &netRead{zipf: newZipf(nrFiles, nrTheta)}
	for d := 0; d < nrDirs; d++ {
		for f := 0; f < nrPerDir; f++ {
			name := fmt.Sprintf("/d%02d/f%d", d, f)
			buf := make([]byte, nrFileSize)
			fillPattern(buf, pathKey(name), 0)
			w.names = append(w.names, name)
			w.content = append(w.content, buf)
		}
	}
	return w
}

func (w *netRead) params() string {
	return fmt.Sprintf("servers=%d shards=%d(hash) files=%d dirs=%d file_size=%d block=%d batch=%d zipf_theta=%.2f write_batches=1/%d volume=%d",
		nrServers, nrServers, nrFiles, nrDirs, nrFileSize, nrBlock, nrBatch, nrTheta, nrWriteEach, nrVolume)
}

func (w *netRead) setup(seed int64) error {
	// Listeners first: every authority needs the whole map.
	smap := &shard.Map{Epoch: 1}
	lns := make([]net.Listener, nrServers)
	for i := range lns {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
		smap.Shards = append(smap.Shards, shard.Shard{ID: uint32(i), Addrs: []string{ln.Addr().String()}})
	}
	w.fss = nil
	for i, ln := range lns {
		dev := pmem.New(nrVolume)
		dev.Prefault()
		fs, err := core.Format(dev, fsapi.Root, core.Options{})
		if err == nil {
			var auth *shard.Authority
			if auth, err = shard.NewAuthority(smap, ln.Addr().String(), nil); err == nil {
				_, err = w.serve(server.Config{FS: fs, Sharding: auth}, ln)
			}
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
		w.fss = append(w.fss, fs)
	}
	rt, err := client.NewRouter(smap, nil, client.RouterOptions{})
	if err != nil {
		return err
	}
	w.router = rt
	w.shardOf = w.shardOf[:0]
	for _, name := range w.names {
		w.shardOf = append(w.shardOf, smap.Route(name).ID)
	}

	pop, err := rt.Attach(fsapi.Root)
	if err != nil {
		return err
	}
	for d := 0; d < nrDirs; d++ {
		if err := pop.Mkdir(fmt.Sprintf("/d%02d", d), 0o755); err != nil {
			return err
		}
	}
	for i, name := range w.names {
		fd, err := pop.Create(name, 0o644)
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		if _, err := pop.Write(fd, w.content[i]); err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
		if err := pop.Close(fd); err != nil {
			return err
		}
	}
	pop.Detach()

	w.sessions, w.fds, w.rngs = nil, nil, nil
	for ci := 0; ci < nClients; ci++ {
		c, err := rt.Attach(fsapi.Root)
		if err != nil {
			return err
		}
		sess := c.(*client.RoutedSession)
		w.sessions = append(w.sessions, sess)
		fds := make([]fsapi.FD, nrFiles)
		for i, name := range w.names {
			if fds[i], err = sess.Open(name, fsapi.ORdwr, 0); err != nil {
				return fmt.Errorf("open %s: %w", name, err)
			}
		}
		w.fds = append(w.fds, fds)
		w.rngs = append(w.rngs, clientRand(seed, ci))
	}
	w.perm = balancedPerm(rand.New(rand.NewSource(seed)), w.shardOf)
	return nil
}

func (w *netRead) close() {
	for _, s := range w.sessions {
		s.Detach()
	}
	w.sessions = nil
	if w.router != nil {
		w.router.Close()
		w.router = nil
	}
	w.stop()
}

// run submits batches of one kind each: nine in ten hold four (pread,
// stat) pairs, one in ten eight pwrites that rewrite blocks in place.
func (w *netRead) run(ci int, rec *recorder, stop func() bool) error {
	sess, fds, rng := w.sessions[ci], w.fds[ci], w.rngs[ci]
	reqs := make([]wire.Request, nrBatch)
	files := make([]int, nrBatch)
	for !stop() {
		rec.begin()
		write := rng.Intn(nrWriteEach) == 0
		for j := range reqs {
			f := w.perm[w.zipf.next(rng)]
			off := uint64(rng.Intn(nrFileSize/nrBlock)) * nrBlock
			files[j] = f
			switch {
			case write:
				reqs[j] = wire.Request{Op: wire.OpPwrite, FD: fds[f], Off: off, Data: w.content[f][off : off+nrBlock]}
			case j%2 == 0:
				reqs[j] = wire.Request{Op: wire.OpPread, FD: fds[f], Off: off, Size: nrBlock}
			default:
				reqs[j] = wire.Request{Op: wire.OpStat, Path: w.names[f]}
			}
		}
		var seen [nrServers]bool
		for _, f := range files {
			if !seen[w.shardOf[f]] {
				seen[w.shardOf[f]] = true
				rec.parts++
			}
		}
		cls := clsRead
		if write {
			cls = clsWrite
		}
		t := time.Now()
		resps, err := sess.Submit(reqs)
		rec.batch(cls, t, time.Now(), len(reqs), resps, err)
		if err != nil {
			rec.end()
			return err
		}
		for j := range resps {
			w.verify(rec, &reqs[j], &resps[j], files[j])
		}
		rec.end()
	}
	return nil
}

// verify checks one response against the file set.
func (w *netRead) verify(rec *recorder, req *wire.Request, resp *wire.Response, f int) {
	if resp.Code != wire.CodeOK {
		return // counted as a failure
	}
	switch req.Op {
	case wire.OpPwrite:
		if resp.N != nrBlock {
			rec.problem("pwrite %s@%d wrote %d bytes", w.names[f], req.Off, resp.N)
		} else {
			rec.written += nrBlock
		}
	case wire.OpPread:
		want := w.content[f][req.Off : req.Off+nrBlock]
		if !bytes.Equal(resp.Data, want) {
			j := firstDiff(resp.Data, want)
			rec.problem("pread %s@%d: %d bytes, first difference at %d", w.names[f], req.Off, len(resp.Data), j)
		}
	case wire.OpStat:
		if resp.Stat.Size != nrFileSize || !fsapi.IsRegular(resp.Stat.Mode) {
			rec.problem("stat %s: size %d mode %o", w.names[f], resp.Stat.Size, resp.Stat.Mode)
		}
	}
}

func (w *netRead) snap() layerSnap {
	s := layerSnap{router: w.router.Stats()}
	for i, fs := range w.fss {
		st := fs.Stats()
		if i == 0 {
			s.core = st
		} else {
			s.core = s.core.Add(st)
		}
		s.servers = append(s.servers, scrape(w.srvs[i].WriteMetrics))
	}
	return s
}

func (w *netRead) sample() map[string]float64 {
	var q float64
	for _, srv := range w.srvs {
		q += scrape(srv.WriteMetrics)["simurgh_server_queue_len"]
	}
	return map[string]float64{"server.queue_len": q}
}

func (w *netRead) setTracing(on bool) {
	for _, fs := range w.fss {
		fs.Obs().SetSamplePeriod(samplePeriod(on))
	}
}

// check rereads every file through a fresh routed session.
func (w *netRead) check(res *result) error {
	c, err := w.router.Attach(fsapi.Root)
	if err != nil {
		return err
	}
	defer c.Detach()
	buf := make([]byte, nrFileSize)
	for i, name := range w.names {
		fd, err := c.Open(name, fsapi.ORdonly, 0)
		if err != nil {
			return fmt.Errorf("open %s: %w", name, err)
		}
		n, err := c.Pread(fd, buf, 0)
		if err != nil {
			return fmt.Errorf("read %s: %w", name, err)
		}
		if n != nrFileSize || !bytes.Equal(buf, w.content[i]) {
			res.problem("%s after the run: %d bytes, first difference at %d", name, n, firstDiff(buf[:n], w.content[i][:n]))
		}
		c.Close(fd)
	}
	var allocated uint64
	for _, fs := range w.fss {
		allocated += allocatedBytes(fs)
	}
	res.add(groupE2E, "space_amp", float64(allocated)/float64(nrFiles*nrFileSize), "ratio", nrFiles)
	res.note("client.* counters read zero on net-read: the router does not expose its per-shard Remotes")
	return nil
}

// balancedPerm maps Zipf ranks to files: a seeded shuffle within each shard,
// with consecutive ranks taken from the shards in turn. Hot files then
// spread evenly over the servers whatever the seed, so runs with different
// seeds load the system alike.
func balancedPerm(rng *rand.Rand, shardOf []uint32) []int {
	var byShard [nrServers][]int
	for f, s := range shardOf {
		byShard[s] = append(byShard[s], f)
	}
	for _, files := range byShard {
		rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
	}
	perm := make([]int, 0, len(shardOf))
	for k := 0; len(perm) < len(shardOf); k++ {
		for _, files := range byShard {
			if k < len(files) {
				perm = append(perm, files[k])
			}
		}
	}
	return perm
}
