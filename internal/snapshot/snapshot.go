// Package snapshot serializes and restores full simulation state: a
// versioned, checksummed container around vmm.MachineState that makes
// checkpoint/resume bit-exact — a run checkpointed at access N and restored
// into a freshly built machine continues byte-identical to the uninterrupted
// run (reports, golden snapshots, observability counters).
//
// Container layout:
//
//	offset size  field
//	0      8     magic "PCCSNAP\x00"
//	8      4     format version (little-endian uint32)
//	12     8     payload length (little-endian uint64)
//	20     4     IEEE CRC32 of the payload (little-endian uint32)
//	24     n     gob-encoded Snapshot
//
// The checksum is verified before the payload is decoded, and the decoder
// converts every failure mode of a hostile input — wrong magic, unknown
// version, short reads, bit flips, a forged length, gob-level garbage — into
// one of the typed errors below. Decode never panics.
//
// Determinism: MachineState and the policy state types contain no Go maps
// (maps are flattened to sorted slices at capture time), so encoding the
// same state twice produces identical bytes; snapshot files can themselves
// be golden-tested.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"

	"pccsim/internal/vmm"
)

// Version is the current container format version. Decode accepts only this
// version: the format carries complete simulator state whose meaning shifts
// with the simulator itself, so cross-version restore is refused rather than
// silently misinterpreted.
const Version = 4

var magic = [8]byte{'P', 'C', 'C', 'S', 'N', 'A', 'P', 0}

// maxPayload bounds the payload length field so a forged header cannot make
// the decoder allocate unbounded memory before the checksum check.
const maxPayload = 1 << 31

// Typed decode/restore failures. Every error returned by Decode wraps
// exactly one of these; callers branch with errors.Is.
var (
	// ErrBadMagic: the input does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion: the container's format version is not Version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated: the input ends before the header or the declared
	// payload is complete.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt: the payload fails its checksum, declares an implausible
	// length, or does not decode as a Snapshot.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrIncompatible: the snapshot decoded cleanly but does not fit the
	// machine it is being restored into (different Config, processes,
	// policy, or state that fails the machine's invariant audit).
	ErrIncompatible = errors.New("snapshot: incompatible with machine")
)

// Snapshot is one captured simulation state: the machine configuration it
// was taken under (restore validates it against the target machine), an
// optional caller label, and the complete machine state.
type Snapshot struct {
	Config vmm.Config
	Label  string
	State  vmm.MachineState
}

// Capture snapshots m. Safe between any two RunUntil calls and after a
// completed Run; the machine is not modified.
func Capture(m *vmm.Machine, label string) *Snapshot {
	return &Snapshot{Config: m.Config(), Label: label, State: m.State()}
}

// Restore installs s into m, which must be freshly constructed exactly as
// the captured machine was (same Config, same AddProcess calls, same policy
// wiring). Every mismatch — and any invariant violation in the restored
// state — returns an error wrapping ErrIncompatible.
func Restore(m *vmm.Machine, s *Snapshot) error {
	if !reflect.DeepEqual(m.Config(), s.Config) {
		return fmt.Errorf("%w: machine config %+v differs from snapshot config %+v",
			ErrIncompatible, m.Config(), s.Config)
	}
	if err := m.RestoreState(s.State); err != nil {
		return fmt.Errorf("%w: %v", ErrIncompatible, err)
	}
	return nil
}

// Encode writes the container to w.
func Encode(w io.Writer, s *Snapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("snapshot: encoding: %w", err)
	}
	var hdr [24]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// Decode reads one container from r. The returned error (if any) wraps
// ErrBadMagic, ErrVersion, ErrTruncated or ErrCorrupt; arbitrary input can
// produce an error but never a panic.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[12:20])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(hdr[20:24]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return decodePayload(payload)
}

// decodePayload gob-decodes a checksum-verified payload, converting any
// decoder panic into ErrCorrupt (gob is error-based, but a recover here
// makes "never panics on hostile input" a guarantee rather than a hope).
func decodePayload(payload []byte) (s *Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("%w: decoder panic: %v", ErrCorrupt, r)
		}
	}()
	var snap Snapshot
	if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); derr != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, derr)
	}
	return &snap, nil
}

// EncodeBytes is Encode into a fresh byte slice.
func EncodeBytes(s *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBytes is Decode from a byte slice.
func DecodeBytes(b []byte) (*Snapshot, error) {
	return Decode(bytes.NewReader(b))
}
