package main

import (
	"net"
	"sync"

	"simurgh/internal/core"
	"simurgh/internal/obs"
	"simurgh/internal/server"
)

// samplePeriod is the volumes' per-op sampling period: every op while
// traced, the default otherwise (as simurghd serves).
func samplePeriod(traced bool) int {
	if traced {
		return 1
	}
	return obs.DefaultSamplePeriod
}

// serving is a set of in-process servers on loopback.
type serving struct {
	srvs []*server.Server
	lns  []net.Listener
	wg   sync.WaitGroup
}

// listen reserves a loopback address before the server that will use it
// exists (shard maps and joins need every address up front).
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve starts a server on ln.
func (s *serving) serve(cfg server.Config, ln net.Listener) (*server.Server, error) {
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.srvs = append(s.srvs, srv)
	s.lns = append(s.lns, ln)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln)
	}()
	return srv, nil
}

// stop shuts every server down and waits for their accept loops to end.
// Closing the listeners as well ends an accept loop that had not yet
// registered its listener when Shutdown ran.
func (s *serving) stop() {
	for i, srv := range s.srvs {
		srv.Shutdown()
		s.lns[i].Close()
	}
	s.wg.Wait()
	s.srvs, s.lns = nil, nil
}

// slabObjSize is each slab class's object size, by the gauge names core
// exports.
var slabObjSize = map[string]uint64{
	"inode": core.InodeSize, "dirblock": core.DirBlockSize, "fentry": core.FileEntrySize,
	"extent": core.ExtentSize, "blob": core.BlobSize,
}

// allocatedBytes is the device space a volume holds for its contents: the
// blocks in use, less the slots of slab segments that hold no valid object
// (slab segments are carved out of blocks).
func allocatedBytes(fs *core.FS) uint64 {
	g := make(map[string]uint64)
	for _, x := range fs.Stats().Gauges {
		g[x.Name] = x.Value
	}
	bytes := (g["alloc.blocks_total"] - g["alloc.blocks_free"]) * core.BlockSize
	for class, size := range slabObjSize {
		bytes -= (g["slab."+class+".objects"] - g["slab."+class+".valid"]) * size
	}
	return bytes
}
