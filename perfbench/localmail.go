package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
)

// local-mail is the paper's Fig 8 Filebench varmail cycle, run against the
// library with no wire: metadata-heavy work through core, alloc and pmem.
// The 128 MiB file set exceeds the last-level cache, and Simurgh keeps no
// DRAM data cache, so reads go to the emulated NVMM.
const (
	mailFiles    = 8192
	mailFileSize = 16 << 10
	mailIO       = 8 << 10 // write and append size; also the content period
	mailVolume   = 512 << 20
	mailDir      = "/mail"
)

type localMail struct {
	dev     *pmem.Device
	fs      *core.FS
	names   []string
	keys    []uint64
	clients []fsapi.Client
	rngs    []*rand.Rand
	// lost marks names whose re-create failed, per client: the only way a
	// name may be missing at the end.
	lost []map[int]bool
	// expect fills the expected bytes of a stream (tests corrupt it).
	expect func(p []byte, key, off uint64)
}

func newLocalMail() *localMail {
	w := &localMail{expect: fillPattern}
	for i := 0; i < mailFiles; i++ {
		w.names = append(w.names, fmt.Sprintf("%s/m%05d", mailDir, i))
		w.keys = append(w.keys, pathKey(w.names[i]))
	}
	return w
}

func (w *localMail) params() string {
	return fmt.Sprintf("files=%d file_size=%d io=%d volume=%d flat_dir=%s", mailFiles, mailFileSize, mailIO, mailVolume, mailDir)
}

// fill writes file i's expected bytes at off. Content repeats every mailIO
// bytes: an O_APPEND write lands at an end of file the caller cannot know
// in advance, and every size the cycle produces is a multiple of mailIO,
// so the bytes at an offset are still a function of (path, offset).
func (w *localMail) fill(p []byte, i int, off uint64) {
	for len(p) > 0 {
		in := off % mailIO
		n := min(uint64(len(p)), mailIO-in)
		w.expect(p[:n], w.keys[i], in)
		p, off = p[n:], off+n
	}
}

func (w *localMail) setup(seed int64) error {
	w.dev = pmem.New(mailVolume)
	w.dev.Prefault()
	fs, err := core.Format(w.dev, fsapi.Root, core.Options{})
	if err != nil {
		return err
	}
	w.fs = fs
	cl, err := fs.Attach(fsapi.Root)
	if err != nil {
		return err
	}
	defer cl.Detach()
	if err := cl.Mkdir(mailDir, 0o755); err != nil {
		return err
	}
	buf := make([]byte, mailFileSize)
	for i, name := range w.names {
		w.fill(buf, i, 0)
		fd, err := cl.Create(name, 0o644)
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		if _, err := cl.Write(fd, buf); err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
		if err := cl.Close(fd); err != nil {
			return err
		}
	}
	w.clients, w.rngs, w.lost = nil, nil, nil
	for ci := 0; ci < nClients; ci++ {
		c, err := fs.Attach(fsapi.Root)
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
		w.rngs = append(w.rngs, clientRand(seed, ci))
		w.lost = append(w.lost, make(map[int]bool))
	}
	return nil
}

func (w *localMail) close() {
	for _, c := range w.clients {
		c.Detach()
	}
	w.clients = nil
	w.fs, w.dev = nil, nil
}

// run is the varmail cycle. Every name is shared by both clients, so an
// open or unlink may find a name the other client has just unlinked:
// ErrNotExist there is the POSIX answer and is expected. Any other error,
// including ErrNotExist from Create, is a failure; the cycle moves on.
func (w *localMail) run(ci int, rec *recorder, stop func() bool) error {
	cl, rng := w.clients[ci], w.rngs[ci]
	data := make([]byte, mailIO)
	rbuf := make([]byte, 32<<10)
	period := make([]byte, mailIO)
	for !stop() {
		// Unlink a file, then create it, write 8 KiB, fsync, close.
		a := rng.Intn(mailFiles)
		w.unlink(cl, rec, a)
		w.fill(data, a, 0)
		if !w.write(cl, rec, a, data, fsapi.OCreate|fsapi.OWronly|fsapi.OTrunc) {
			w.lost[ci][a] = true
		} else {
			delete(w.lost[ci], a)
		}
		// Read a file whole, then append 8 KiB to it.
		b := rng.Intn(mailFiles)
		w.read(cl, rec, b, rbuf, period)
		w.fill(data, b, 0)
		w.write(cl, rec, b, data, fsapi.OWronly|fsapi.OAppend)
		// Read another file whole.
		w.read(cl, rec, rng.Intn(mailFiles), rbuf, period)
	}
	return nil
}

func (w *localMail) unlink(cl fsapi.Client, rec *recorder, i int) {
	rec.begin()
	t := time.Now()
	err := cl.Unlink(w.names[i])
	rec.call(clsMeta, t, time.Now(), err, fsapi.ErrNotExist)
	rec.end()
}

// write opens file i with flags (Create when OCreate is set), writes data,
// fsyncs and closes. It reports whether the file was written.
func (w *localMail) write(cl fsapi.Client, rec *recorder, i int, data []byte, flags fsapi.OpenFlag) bool {
	name := w.names[i]
	rec.begin()
	t := time.Now()
	var fd fsapi.FD
	var err error
	var allowed error
	if flags&fsapi.OCreate != 0 {
		fd, err = cl.Create(name, 0o644)
	} else {
		fd, err = cl.Open(name, flags, 0)
		allowed = fsapi.ErrNotExist
	}
	ok := rec.call(clsMeta, t, time.Now(), err, allowed)
	rec.end()
	if !ok {
		return false
	}
	rec.begin()
	t = time.Now()
	n, err := cl.Write(fd, data)
	if rec.call(clsWrite, t, time.Now(), err, nil) {
		rec.written += uint64(n)
	} else {
		ok = false
	}
	rec.end()
	rec.begin()
	t = time.Now()
	err = cl.Fsync(fd)
	ok = rec.call(clsWrite, t, time.Now(), err, nil) && ok
	rec.end()
	rec.begin()
	t = time.Now()
	err = cl.Close(fd)
	ok = rec.call(clsMeta, t, time.Now(), err, nil) && ok
	rec.end()
	return ok
}

// read opens file i, reads it whole checking every byte, and closes it.
// period holds scratch for one content period.
func (w *localMail) read(cl fsapi.Client, rec *recorder, i int, buf, period []byte) {
	rec.begin()
	t := time.Now()
	fd, err := cl.Open(w.names[i], fsapi.ORdonly, 0)
	ok := rec.call(clsMeta, t, time.Now(), err, fsapi.ErrNotExist)
	rec.end()
	if !ok {
		return
	}
	w.fill(period, i, 0)
	for off := uint64(0); ; {
		rec.begin()
		t = time.Now()
		n, err := cl.Read(fd, buf)
		if err == io.EOF {
			err = nil // end of file
		}
		if !rec.call(clsRead, t, time.Now(), err, nil) || n == 0 {
			rec.end()
			break
		}
		if j := periodDiff(buf[:n], period, off); j >= 0 {
			rec.problem("%s: byte %d read %#x, want %#x", w.names[i], off+uint64(j), buf[j], period[(off+uint64(j))%mailIO])
		}
		rec.end()
		off += uint64(n)
	}
	rec.begin()
	t = time.Now()
	err = cl.Close(fd)
	rec.call(clsMeta, t, time.Now(), err, nil)
	rec.end()
}

// periodDiff compares p, read at off, with content that repeats period,
// and returns the index of the first differing byte or -1.
func periodDiff(p, period []byte, off uint64) int {
	for i := 0; i < len(p); {
		in := (off + uint64(i)) % uint64(len(period))
		n := min(len(p)-i, len(period)-int(in))
		if j := firstDiff(p[i:i+n], period[in:int(in)+n]); j >= 0 {
			return i + j
		}
		i += n
	}
	return -1
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func (w *localMail) snap() layerSnap { return layerSnap{core: w.fs.Stats()} }

func (w *localMail) sample() map[string]float64 { return nil }

func (w *localMail) setTracing(on bool) {
	w.fs.Obs().SetSamplePeriod(samplePeriod(on))
}

// check measures space amplification, unmounts and remounts the volume,
// requires that no recovery ran, and rechecks every byte of every file.
func (w *localMail) check(res *result) error {
	for _, c := range w.clients {
		c.Detach()
	}
	w.clients = nil
	allocated := allocatedBytes(w.fs)
	w.fs.Unmount()
	fs, st, err := core.Mount(w.dev, core.Options{})
	if err != nil {
		return fmt.Errorf("remount: %w", err)
	}
	w.fs = fs
	if !st.WasClean || st.FixedSlots+st.FixedCreates+st.FixedRenames+st.FixedLogs+st.Reclaimed > 0 {
		res.problem("remount after a clean unmount ran recovery: %+v", *st)
	}
	lost := make(map[int]bool)
	for _, l := range w.lost {
		for i := range l {
			lost[i] = true
		}
	}
	live, err := w.verifyAll(res, lost)
	if err != nil {
		return err
	}
	res.add(groupE2E, "space_amp", float64(allocated)/float64(live), "ratio", mailFiles)
	return nil
}

// verifyAll rereads every file through a fresh client and returns the live
// user bytes. A missing file is a problem unless its re-create failed.
func (w *localMail) verifyAll(res *result, lost map[int]bool) (uint64, error) {
	cl, err := w.fs.Attach(fsapi.Root)
	if err != nil {
		return 0, err
	}
	defer cl.Detach()
	buf := make([]byte, 64<<10)
	period := make([]byte, mailIO)
	var live uint64
	for i, name := range w.names {
		fd, err := cl.Open(name, fsapi.ORdonly, 0)
		if errors.Is(err, fsapi.ErrNotExist) {
			if !lost[i] {
				res.problem("%s is missing after remount", name)
			}
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("open %s: %w", name, err)
		}
		w.fill(period, i, 0)
		st, err := cl.Fstat(fd)
		if err != nil {
			return 0, err
		}
		if st.Size%mailIO != 0 || st.Size == 0 {
			res.problem("%s has size %d, not a positive multiple of %d", name, st.Size, mailIO)
		}
		var off uint64
		for {
			n, err := cl.Pread(fd, buf, off)
			if err != nil && err != io.EOF {
				return 0, fmt.Errorf("read %s: %w", name, err)
			}
			if n == 0 {
				break
			}
			if j := periodDiff(buf[:n], period, off); j >= 0 {
				res.problem("%s after remount: byte %d read %#x, want %#x", name, off+uint64(j), buf[j], period[(off+uint64(j))%mailIO])
				break
			}
			off += uint64(n)
		}
		if off != st.Size {
			res.problem("%s after remount: read %d bytes of %d", name, off, st.Size)
		}
		live += st.Size
		cl.Close(fd)
	}
	return live, nil
}
