package iosys

import (
	"errors"

	"repro/internal/domain"
	"repro/internal/obj"
	"repro/internal/process"
)

// Console is a write-mostly character device: output accumulates in a
// buffer the harness can inspect; reads drain a presupplied input queue.
type Console struct {
	out []byte
	in  []byte
}

// NewConsole returns an empty console.
func NewConsole() *Console { return &Console{} }

// Write implements Device.
func (c *Console) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

// Read implements Device.
func (c *Console) Read(p []byte) (int, error) {
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

// Status implements Device.
func (c *Console) Status() uint32 { return ClassConsole<<8 | FlagReady }

// Output reports everything written so far.
func (c *Console) Output() string { return string(c.out) }

// FeedInput queues bytes for subsequent reads.
func (c *Console) FeedInput(p []byte) { c.in = append(c.in, p...) }

// InstallConsole creates a console device instance: common interface
// only, no extensions.
func InstallConsole(doms *domain.Manager, heap obj.AD, c *Console) (obj.AD, *obj.Fault) {
	return Install(doms, heap, c, 3, nil)
}

// Tape is a sequential-access medium: writes append at the head position,
// reads consume from it, REWIND returns to the start, MARK writes an
// end-of-file marker that terminates subsequent reads (FlagEOF).
type Tape struct {
	medium   []byte
	marks    map[int]bool // EOF marker positions
	pos      int
	capacity int
	eof      bool
}

// NewTape returns a tape of the given capacity in bytes.
func NewTape(capacity int) *Tape {
	return &Tape{capacity: capacity, marks: make(map[int]bool)}
}

// Write implements Device.
func (t *Tape) Write(p []byte) (int, error) {
	room := t.capacity - t.pos
	if room <= 0 {
		return 0, errors.New("tape full")
	}
	if len(p) > room {
		p = p[:room]
	}
	if t.pos+len(p) > len(t.medium) {
		t.medium = append(t.medium, make([]byte, t.pos+len(p)-len(t.medium))...)
	}
	copy(t.medium[t.pos:], p)
	// Overwriting destroys any markers in the written range.
	for i := t.pos; i < t.pos+len(p); i++ {
		delete(t.marks, i)
	}
	t.pos += len(p)
	t.eof = false
	return len(p), nil
}

// Read implements Device.
func (t *Tape) Read(p []byte) (int, error) {
	if t.marks[t.pos] {
		// Consume the marker cell: report end-of-file and position
		// the head at the next record, tape fashion.
		t.pos++
		t.eof = true
		return 0, nil
	}
	end := t.pos + len(p)
	if end > len(t.medium) {
		end = len(t.medium)
	}
	// Stop at an intervening marker.
	for i := t.pos; i < end; i++ {
		if t.marks[i] {
			end = i
			break
		}
	}
	n := copy(p, t.medium[t.pos:end])
	t.pos += n
	t.eof = n == 0
	return n, nil
}

// Status implements Device.
func (t *Tape) Status() uint32 {
	s := uint32(ClassTape<<8 | FlagReady)
	if t.eof {
		s |= FlagEOF
	}
	if t.pos >= t.capacity {
		s |= FlagFull
	}
	return s
}

// Rewind returns the head to the start of the medium.
func (t *Tape) Rewind() { t.pos = 0; t.eof = false }

// Mark writes an end-of-file marker at the head; the marker occupies one
// cell of the medium.
func (t *Tape) Mark() {
	t.marks[t.pos] = true
	if t.pos >= len(t.medium) {
		t.medium = append(t.medium, 0)
	}
	t.pos++
}

// InstallTape creates a tape device instance: the common interface plus
// the tape-class extensions REWIND and MARK.
func InstallTape(doms *domain.Manager, heap obj.AD, t *Tape) (obj.AD, *obj.Fault) {
	return Install(doms, heap, t, 5, func(env *domain.Env, entry uint32) (bool, *obj.Fault) {
		switch entry {
		case EntryTapeRewind:
			t.Rewind()
			return true, nil
		case EntryTapeMark:
			t.Mark()
			return true, nil
		}
		return false, nil
	})
}

// Disk is a block-addressed medium with a SEEK extension.
type Disk struct {
	blocks    [][]byte
	blockSize int
	head      int
}

// NewDisk returns a disk with the given geometry.
func NewDisk(blocks, blockSize int) *Disk {
	d := &Disk{blocks: make([][]byte, blocks), blockSize: blockSize}
	for i := range d.blocks {
		d.blocks[i] = make([]byte, blockSize)
	}
	return d
}

// Write implements Device: writes one block (or less) at the head and
// advances it.
func (d *Disk) Write(p []byte) (int, error) {
	if d.head >= len(d.blocks) {
		return 0, errors.New("disk: head beyond medium")
	}
	if len(p) > d.blockSize {
		p = p[:d.blockSize]
	}
	copy(d.blocks[d.head], p)
	d.head++
	return len(p), nil
}

// Read implements Device: reads from the block at the head and advances.
func (d *Disk) Read(p []byte) (int, error) {
	if d.head >= len(d.blocks) {
		return 0, nil
	}
	n := copy(p, d.blocks[d.head])
	d.head++
	return n, nil
}

// Status implements Device.
func (d *Disk) Status() uint32 {
	s := uint32(ClassDisk<<8 | FlagReady)
	if d.head >= len(d.blocks) {
		s |= FlagFull
	}
	return s
}

// Seek positions the head at the given block.
func (d *Disk) Seek(block int) error {
	if block < 0 || block >= len(d.blocks) {
		return errors.New("disk: seek out of range")
	}
	d.head = block
	return nil
}

// InstallDisk creates a disk device instance: the common interface plus
// the disk-class SEEK extension.
func InstallDisk(doms *domain.Manager, heap obj.AD, d *Disk) (obj.AD, *obj.Fault) {
	return Install(doms, heap, d, 4, func(env *domain.Env, entry uint32) (bool, *obj.Fault) {
		if entry != EntryDiskSeek {
			return false, nil
		}
		var c process.Ctx
		env.Procs.OpenContext(env.Ctx, obj.RightRead, &c)
		blk := c.Reg(1)
		if f := c.Fault(); f != nil {
			return true, f
		}
		if err := d.Seek(int(blk)); err != nil {
			return true, obj.Faultf(obj.FaultBounds, obj.NilAD, "%v", err)
		}
		return true, nil
	})
}
