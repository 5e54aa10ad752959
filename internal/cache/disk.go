package cache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"sparsefusion/internal/core"
)

// The disk tier and the facade's SaveSchedule share one container format: a
// fingerprinted envelope around the core schedule serialization. The envelope
// is what makes a loaded file trustworthy-by-construction: the reader hands
// back the key the file was written under, and the caller compares it against
// the fingerprint it computed from its own matrix and parameters — a file for
// the wrong pattern (or renamed on disk) is rejected before the payload is
// even validated.

// containerMagic marks a fingerprinted schedule container ("SPFC"); the bare
// core serialization starts with "SPFS" instead, which is how loaders
// distinguish pre-fingerprint files.
const containerMagic = 0x43465053

// containerVersion is bumped on envelope layout changes. Version 2 marks
// files whose key may be a chain-extended fingerprint (Params.ChainLen /
// ChainKernels); the envelope bytes are laid out identically, so readers
// accept both versions and pre-chain files keep loading.
const containerVersion = 2

// containerVersionMin is the oldest envelope still readable.
const containerVersionMin = 1

// WriteScheduleFile writes the fingerprinted container: magic, version, key,
// then the core schedule serialization.
func WriteScheduleFile(w io.Writer, key Key, s *core.Schedule) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], containerMagic)
	binary.LittleEndian.PutUint64(hdr[8:], containerVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(key[:]); err != nil {
		return err
	}
	if _, err := s.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadScheduleFile reads a container written by WriteScheduleFile, returning
// the key it was written under and the decoded schedule. It fails on foreign
// magic, unknown versions, or a truncated envelope; payload truncation and
// corruption surface from core.ReadSchedule. Callers must still compare the
// returned key against the fingerprint they expect and validate the schedule
// against their loops.
func ReadScheduleFile(r io.Reader) (Key, *core.Schedule, error) {
	var key Key
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return key, nil, fmt.Errorf("cache: reading container header: %w", err)
	}
	if m := binary.LittleEndian.Uint64(hdr[0:]); m != containerMagic {
		return key, nil, fmt.Errorf("cache: not a fingerprinted schedule container (magic %#x)", m)
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v < containerVersionMin || v > containerVersion {
		return key, nil, fmt.Errorf("cache: unsupported container version %d", v)
	}
	if _, err := io.ReadFull(r, key[:]); err != nil {
		return key, nil, fmt.Errorf("cache: reading container fingerprint: %w", err)
	}
	s, err := core.ReadSchedule(r)
	if err != nil {
		return key, nil, err
	}
	return key, s, nil
}

// path is the tier file for a key.
func (c *Cache) path(key Key) string {
	return filepath.Join(c.dir, key.String()+".sched")
}

// loadDisk reads and verifies the tier file for key. The stored key must
// match the requested one — a renamed or cross-copied file is an error, not
// a hit.
func (c *Cache) loadDisk(key Key) (*core.Schedule, error) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fileKey, s, err := ReadScheduleFile(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	if fileKey != key {
		return nil, fmt.Errorf("cache: tier file %s holds fingerprint %s", c.path(key), fileKey)
	}
	return s, nil
}

// saveDisk persists a freshly inspected schedule, writing to a temp file and
// renaming so concurrent processes never observe a torn file.
func (c *Cache) saveDisk(key Key, s *core.Schedule) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, key.String()+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteScheduleFile(tmp, key, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// quarantine moves a defective tier file aside — <fp>.sched becomes
// <fp>.sched.bad — so the next request for this fingerprint sees a cold miss,
// rebuilds, and rewrites a good file, instead of every request re-reading and
// re-failing on the same corrupt bytes. cause is the defect that triggered
// it, carried on the emitted disk_quarantine event. A .bad file already
// sitting there (an earlier quarantine whose rebuild never wrote back) is
// overwritten: the newest corpse is the one worth examining. The rename is
// best-effort — a failure (e.g. a read-only tier) is reported as a disk
// error and the file stays; the in-process rebuild proceeds regardless.
func (c *Cache) quarantine(key Key, cause error) {
	p := c.path(key)
	if err := os.Rename(p, p+".bad"); err != nil {
		if !isNotExist(err) {
			c.diskErrors.Add(1)
			c.emit(EventDiskError, key, 0, "quarantine failed: "+err.Error())
		}
		return
	}
	c.diskQuarantines.Add(1)
	c.emit(EventDiskQuarantine, key, 0, cause.Error())
}

// isNotExist reports a missing tier file (a plain cold miss, not an error).
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
