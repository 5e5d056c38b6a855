package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pccsim/internal/mem"
)

// writeTrace stores addrs, odd ones as writes, as a trace file in the
// given format and returns its path.
func writeTrace(t *testing.T, bin bool, addrs ...mem.VirtAddr) string {
	t.Helper()
	var buf bytes.Buffer
	if bin {
		buf.WriteString("PCCTRC1\n")
	}
	for i, a := range addrs {
		if bin {
			buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(a)))
			buf.WriteByte(byte(i % 2)) // bit0 = write, thread 0
		} else {
			fmt.Fprintf(&buf, "%#x %c 0\n", uint64(a), "rw"[i%2])
		}
	}
	path := filepath.Join(t.TempDir(), "app.trc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceFileMergesGapsUpTo16MB: touched 2MB regions merge into one VMA
// across at most 16MB of untouched space and split beyond it.
func TestTraceFileMergesGapsUpTo16MB(t *testing.T) {
	const base, mb = mem.VirtAddr(1 << 30), mem.VirtAddr(1 << 20)
	path := writeTrace(t, false,
		base+5,       // region [0, 2MB)
		base+18*mb,   // 16MB gap after the first region: merges
		base+19*mb,   // same region again
		base+39*mb+1, // region [38MB, 40MB): an 18MB gap, splits
	)
	wl, err := Build(Spec{Name: TracePrefix + path})
	if err != nil {
		t.Fatal(err)
	}
	want := []mem.Range{{Start: base, End: base + 20*mb}, {Start: base + 38*mb, End: base + 40*mb}}
	if got := wl.Ranges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ranges = %v, want %v", got, want)
	}
	if wl.Footprint() != uint64(22*mb) || wl.Name() != TracePrefix+path {
		t.Errorf("footprint %d name %q", wl.Footprint(), wl.Name())
	}
}

// TestTraceFileTextAndBinaryAgree: both formats load to the same VMAs and
// replay the same accesses.
func TestTraceFileTextAndBinaryAgree(t *testing.T) {
	addrs := []mem.VirtAddr{0x200000, 0x201000, 0x5000000, 0x200040}
	var loaded [2]Workload
	for i, binary := range []bool{false, true} {
		wl, err := TraceFile(writeTrace(t, binary, addrs...))
		if err != nil {
			t.Fatal(err)
		}
		loaded[i] = wl
		got := collect(wl.Stream(), len(addrs)+1)
		if len(got) != len(addrs) {
			t.Fatalf("binary=%v: replayed %d accesses, want %d", binary, len(got), len(addrs))
		}
		for k, a := range got {
			if a.Addr != addrs[k] || a.Write != (k%2 == 1) {
				t.Errorf("binary=%v: access %d = %+v, want addr %#x", binary, k, a, uint64(addrs[k]))
			}
		}
	}
	if !reflect.DeepEqual(loaded[0].Ranges(), loaded[1].Ranges()) {
		t.Errorf("text ranges %v != binary ranges %v", loaded[0].Ranges(), loaded[1].Ranges())
	}
}

// TestTraceFileErrors: an empty trace and an unreadable file are refused.
func TestTraceFileErrors(t *testing.T) {
	if _, err := TraceFile(writeTrace(t, true)); err == nil || !strings.Contains(err.Error(), "contains no accesses") {
		t.Errorf("empty trace: err = %v", err)
	}
	if _, err := Build(Spec{Name: TracePrefix + filepath.Join(t.TempDir(), "missing.trc")}); err == nil {
		t.Error("missing file: no error")
	}
}

// TestTraceFileRefusesAddressesPastTheLimit: an access at or above
// limit is refused with an error naming it, in both formats —
// the top 4KB page of the 64-bit space (whose inferred VMA would end at 2^64
// and wrap to 0) and an alias of a low address 2^48 above it (which the page
// table would fold onto the low one) — while the last page below the limit
// still loads.
func TestTraceFileRefusesAddressesPastTheLimit(t *testing.T) {
	const low, limit = mem.VirtAddr(0x200000), mem.VirtAddr(1 << 48)
	for _, binary := range []bool{false, true} {
		for _, tc := range []struct {
			addrs []mem.VirtAddr
			bad   mem.VirtAddr
		}{
			{[]mem.VirtAddr{0xfffffffffffff000}, 0xfffffffffffff000},
			{[]mem.VirtAddr{low, low + 0x1000, limit + low, limit + low + 0x1000}, limit + low},
			{[]mem.VirtAddr{low, limit}, limit},
		} {
			_, err := TraceFile(writeTrace(t, binary, tc.addrs...))
			if want := fmt.Sprintf("%#x", uint64(tc.bad)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("binary=%v %#x: err = %v, want one naming %s", binary, tc.addrs, err, want)
			}
		}
		wl, err := TraceFile(writeTrace(t, binary, limit-0x1000))
		if err != nil {
			t.Fatalf("binary=%v: the last page below the limit: %v", binary, err)
		}
		if want := []mem.Range{{Start: limit - mem.VirtAddr(mem.Page2M), End: limit}}; !reflect.DeepEqual(wl.Ranges(), want) {
			t.Errorf("binary=%v: ranges = %v, want %v", binary, wl.Ranges(), want)
		}
	}
}
