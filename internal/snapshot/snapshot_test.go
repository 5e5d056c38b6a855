package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/ospolicy"
	"pccsim/internal/physmem"
	"pccsim/internal/snapshot"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
)

// The sims below mirror the repo's examples/ programs at miniature scale —
// same policies, same config shapes, tiny footprints — so the suite (and
// the fuzz seed corpus built from them) covers every policy's state surface
// the way real users of the library exercise it. examples/virtualized uses
// the separate virt.Machine, which has no snapshot surface, and has no
// counterpart here.

func smallCfg(seed int64) vmm.Config {
	cfg := vmm.DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 64 << 21, MovableFillRatio: 0.5}
	cfg.PromotionInterval = 1_000
	cfg.Seed = seed
	return cfg
}

func vma(n int) []mem.Range {
	start := mem.VirtAddr(16 << 20)
	return []mem.Range{{Start: start, End: start + mem.VirtAddr(n)<<21}}
}

func seqStream(r mem.Range, rounds int) trace.Stream {
	var acc []trace.Access
	for i := 0; i < rounds; i++ {
		for a := r.Start; a < r.End; a += mem.VirtAddr(mem.Page4K) {
			acc = append(acc, trace.Access{Addr: a})
		}
	}
	return trace.Slice(acc)
}

// sim names one miniature example scenario; mk builds a fresh machine and
// its jobs from scratch each call.
type sim struct {
	name string
	mk   func() (*vmm.Machine, []*vmm.Job)
}

func exampleSims() []sim {
	return []sim{
		{"quickstart", func() (*vmm.Machine, []*vmm.Job) {
			cfg := smallCfg(1)
			cfg.EnablePCC = true
			engine := ospolicy.NewPCCEngine(ospolicy.DefaultPCCEngineConfig())
			m := vmm.NewMachine(cfg, engine)
			p := m.AddProcess("PR", vma(4), 12)
			engine.Bind(0, p)
			return m, []*vmm.Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 3), Cores: []int{0}}}
		}},
		{"fragmentation", func() (*vmm.Machine, []*vmm.Job) {
			cfg := smallCfg(2)
			cfg.FragFrac = 0.6
			m := vmm.NewMachine(cfg, ospolicy.NewLinuxTHP(ospolicy.DefaultLinuxTHPConfig()))
			p := m.AddProcess("CC", vma(4), 10)
			return m, []*vmm.Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 3)}}
		}},
		{"multitenant", func() (*vmm.Machine, []*vmm.Job) {
			cfg := smallCfg(3)
			cfg.Cores = 2
			cfg.EnablePCC = true
			cfg.MaxHugeBytesTotal = 4 << 21
			ec := ospolicy.DefaultPCCEngineConfig()
			ec.Selection = ospolicy.RoundRobin
			engine := ospolicy.NewPCCEngine(ec)
			m := vmm.NewMachine(cfg, engine)
			pa := m.AddProcess("PR", vma(2), 12)
			pb := m.AddProcess("mcf", vma(3), 18)
			engine.Bind(0, pa)
			engine.Bind(1, pb)
			return m, []*vmm.Job{
				{Proc: pa, Stream: seqStream(pa.Ranges()[0], 4), Cores: []int{0}},
				{Proc: pb, Stream: seqStream(pb.Ranges()[0], 3), Cores: []int{1}},
			}
		}},
		{"custompolicy", func() (*vmm.Machine, []*vmm.Job) {
			m := vmm.NewMachine(smallCfg(4), ospolicy.NewHawkEye(ospolicy.DefaultHawkEyeConfig()))
			p := m.AddProcess("BFS", vma(4), 14)
			return m, []*vmm.Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 3)}}
		}},
		{"tracereplay", func() (*vmm.Machine, []*vmm.Job) {
			m := vmm.NewMachine(smallCfg(5), ospolicy.Baseline{})
			p := m.AddProcess("replay", vma(3), 10)
			return m, []*vmm.Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 2)}}
		}},
		{"pressure", func() (*vmm.Machine, []*vmm.Job) {
			cfg := smallCfg(6)
			cfg.FragFrac = 0.5
			cfg.Pressure = vmm.PressureConfig{
				Enable:              true,
				ChurnAllocFrames:    64,
				ChurnFreeFrames:     32,
				ChurnPinnedFrac:     0.05,
				CompactBudgetFrames: 256,
			}
			m := vmm.NewMachine(cfg, ospolicy.AllHuge{})
			p := m.AddProcess("churny", vma(4), 10)
			return m, []*vmm.Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 4)}}
		}},
	}
}

// captureMidRun runs s to the cut and returns the machine's snapshot.
func captureMidRun(t testing.TB, s sim, cut uint64) *snapshot.Snapshot {
	t.Helper()
	m, jobs := s.mk()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(cut)
	return snapshot.Capture(m, s.name)
}

// TestResumeFromDecodedSnapshotMatchesUninterrupted is the package's
// end-to-end contract: checkpoint mid-run, serialize to bytes, decode,
// restore into a freshly built machine, finish — the result must equal the
// uninterrupted run exactly, for every example scenario.
func TestResumeFromDecodedSnapshotMatchesUninterrupted(t *testing.T) {
	for _, s := range exampleSims() {
		t.Run(s.name, func(t *testing.T) {
			m, jobs := s.mk()
			want := m.Run(jobs...)

			data, err := snapshot.EncodeBytes(captureMidRun(t, s, 1_500))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := snapshot.DecodeBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			m2, jobs2 := s.mk()
			if err := snapshot.Restore(m2, snap); err != nil {
				t.Fatal(err)
			}
			if err := m2.StartRun(jobs2...); err != nil {
				t.Fatal(err)
			}
			got := m2.FinishRun()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed result diverged:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestEncodeDeterministic: capturing and encoding the same simulation point
// twice yields identical bytes — no map-iteration order anywhere in the
// state surface.
func TestEncodeDeterministic(t *testing.T) {
	for _, s := range exampleSims() {
		t.Run(s.name, func(t *testing.T) {
			a, err := snapshot.EncodeBytes(captureMidRun(t, s, 2_500))
			if err != nil {
				t.Fatal(err)
			}
			b, err := snapshot.EncodeBytes(captureMidRun(t, s, 2_500))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("two captures of the same simulation point encoded differently")
			}
		})
	}
}

// TestDecodeTypedErrors: every malformed input maps to exactly the right
// typed error.
func TestDecodeTypedErrors(t *testing.T) {
	valid, err := snapshot.EncodeBytes(captureMidRun(t, exampleSims()[4], 700))
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, snapshot.ErrTruncated},
		{"short header", valid[:10], snapshot.ErrTruncated},
		{"header only", valid[:24], snapshot.ErrTruncated},
		{"truncated payload", valid[:len(valid)-7], snapshot.ErrTruncated},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), snapshot.ErrBadMagic},
		{"future version", mutate(func(b []byte) { b[8] = 99 }), snapshot.ErrVersion},
		{"flipped payload byte", mutate(func(b []byte) { b[24+len(b)%97] ^= 0x40 }), snapshot.ErrCorrupt},
		{"flipped checksum", mutate(func(b []byte) { b[20] ^= 0xff }), snapshot.ErrCorrupt},
		{"forged huge length", mutate(func(b []byte) {
			binary.LittleEndian.PutUint64(b[12:20], 1<<40)
		}), snapshot.ErrCorrupt},
		{"forged short length", mutate(func(b []byte) {
			// Shorter length with a matching checksum over the prefix: the
			// container reads clean but the gob payload is cut off.
			n := binary.LittleEndian.Uint64(b[12:20]) / 2
			binary.LittleEndian.PutUint64(b[12:20], n)
			binary.LittleEndian.PutUint32(b[20:24], crc32.ChecksumIEEE(b[24:24+n]))
		}), snapshot.ErrCorrupt},
		{"checksummed garbage", func() []byte {
			payload := []byte("this is not a gob stream at all, not even close")
			b := append([]byte(nil), valid[:24]...)
			binary.LittleEndian.PutUint64(b[12:20], uint64(len(payload)))
			binary.LittleEndian.PutUint32(b[20:24], crc32.ChecksumIEEE(payload))
			return append(b, payload...)
		}(), snapshot.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := snapshot.DecodeBytes(tc.data)
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestRestoreIncompatible: a snapshot that decodes cleanly must still be
// refused when it does not fit the target machine.
func TestRestoreIncompatible(t *testing.T) {
	snap := captureMidRun(t, exampleSims()[4], 700)

	t.Run("different config", func(t *testing.T) {
		cfg := smallCfg(5)
		cfg.PromotionInterval = 777 // not what the snapshot was taken under
		m := vmm.NewMachine(cfg, ospolicy.Baseline{})
		m.AddProcess("replay", vma(3), 10)
		if err := snapshot.Restore(m, snap); !errors.Is(err, snapshot.ErrIncompatible) {
			t.Errorf("err = %v, want ErrIncompatible", err)
		}
	})
	t.Run("different processes", func(t *testing.T) {
		m := vmm.NewMachine(smallCfg(5), ospolicy.Baseline{})
		m.AddProcess("someone-else", vma(3), 10)
		if err := snapshot.Restore(m, snap); !errors.Is(err, snapshot.ErrIncompatible) {
			t.Errorf("err = %v, want ErrIncompatible", err)
		}
	})
	t.Run("different policy", func(t *testing.T) {
		m := vmm.NewMachine(smallCfg(5), ospolicy.AllHuge{})
		m.AddProcess("replay", vma(3), 10)
		if err := snapshot.Restore(m, snap); !errors.Is(err, snapshot.ErrIncompatible) {
			t.Errorf("err = %v, want ErrIncompatible", err)
		}
	})
}

// TestPropertyRestoreAuditCleanUnderPressure is the property the paper's
// methodology leans on: at ANY cut point — including mid-churn, mid-
// compaction, between a promotion and its shootdown accounting — the
// restored machine satisfies every physical-memory and machine invariant.
// RestoreState runs vmm.Machine.Audit itself and refuses violations; the
// explicit re-audits here make the property visible rather than implied.
func TestPropertyRestoreAuditCleanUnderPressure(t *testing.T) {
	s := exampleSims()[5] // the pressure scenario
	for _, cut := range []uint64{1, 999, 1_000, 1_001, 2_345, 3_000, 5_000, 7_999} {
		snap := captureMidRun(t, s, cut)
		data, err := snapshot.EncodeBytes(snap)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		decoded, err := snapshot.DecodeBytes(data)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		m, jobs := s.mk()
		if err := snapshot.Restore(m, decoded); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if bad := m.Audit(); len(bad) > 0 {
			t.Fatalf("cut %d: machine audit violations after restore: %v", cut, bad)
		}
		if bad := m.Phys().Audit(); len(bad) > 0 {
			t.Fatalf("cut %d: physmem audit violations after restore: %v", cut, bad)
		}
		// And the restored machine must still be runnable to completion.
		if err := m.StartRun(jobs...); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		m.FinishRun()
		if bad := m.Audit(); len(bad) > 0 {
			t.Fatalf("cut %d: audit violations after resumed run: %v", cut, bad)
		}
	}
}
