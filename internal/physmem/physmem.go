// Package physmem models the machine's physical memory at 4KB-frame
// granularity with 2MB-block structure, the way the huge page experiments
// need it: which 2MB-aligned physical blocks are free or can be compacted
// into being free, how fragmentation (unmovable pages sprinkled across
// blocks) destroys huge page availability, and how much work compaction
// costs.
//
// The model tracks two frame populations per block — pinned (unmovable)
// frames that permanently poison their block for huge allocation, and
// movable frames that compaction can migrate into spare capacity elsewhere.
// Migrated frames land in other blocks (preferring already-poisoned ones)
// instead of vanishing, so frame totals are conserved and compaction in a
// nearly-full machine genuinely fails. On top of the static Fragment
// injection the model supports dynamic pressure: a churn source
// (Churn) that allocates and frees frames over time, and a kcompactd-style
// background daemon (Compact) that proactively rebuilds free 2MB blocks
// under a per-tick migration budget.
//
// The model intentionally does not track which frame backs which virtual
// page byte-for-byte — the experiments only depend on availability and cost:
// a huge page promotion needs one fully-usable 2MB-aligned block; a block
// containing a pinned frame can never be used; a block containing only
// movable data can be freed by paying a compaction cost proportional to the
// frames moved. This matches how the paper fragments memory ("allocating
// one non-movable page in every 2MB-aligned region" over X% of memory).
package physmem

import (
	"fmt"
	"math/rand"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
)

// blockState describes one 2MB-aligned physical block. It is a cached
// classification of the block's frame counts: pinned frames make a block
// unmovable, movable frames alone make it compactable, and a block backing
// a huge page holds neither.
type blockState uint8

const (
	blockFree      blockState = iota // entirely free: huge page allocable immediately
	blockMovable                     // holds movable 4KB data; compaction can empty it
	blockUnmovable                   // holds >=1 pinned frame: never huge-allocable
	blockHuge                        // currently backing a huge page
)

// Config sizes the physical memory model.
type Config struct {
	// TotalBytes is the physical memory size (paper machine: 64GB per
	// socket; experiments scale this to a few GB).
	TotalBytes uint64
	// MovableFillRatio is the fraction of each non-unmovable block's
	// frames considered occupied by movable data when fragmentation is
	// injected; compaction cost scales with it.
	MovableFillRatio float64
}

// DefaultConfig returns a 4GB physical memory, half-filled with movable
// data — the scaled-down analogue of the paper's 64GB node.
func DefaultConfig() Config {
	return Config{TotalBytes: 4 << 30, MovableFillRatio: 0.5}
}

// Stats counts allocator work.
type Stats struct {
	HugeAllocs        uint64 // successful 2MB block allocations
	HugeAllocFailures uint64
	HugeFrees         uint64
	GigaAllocs        uint64 // successful 1GB window allocations
	GigaAllocFailures uint64
	GigaFrees         uint64
	Compactions       uint64 // blocks/windows emptied via allocation-time compaction
	FramesMigrated    uint64 // 4KB frames moved by allocation-time compaction
	BaseAllocs        uint64
	// MigrationFailures counts compactions refused because no other block
	// had spare capacity for the evicted frames — the pressure-induced
	// failure mode a vanish-on-compact model cannot exhibit.
	MigrationFailures uint64
	// Churn ledger: movable frames allocated/freed and pinned frames
	// allocated by the dynamic churn source, plus allocations it had to
	// drop because memory was full.
	ChurnAllocFrames   uint64
	ChurnFreeFrames    uint64
	ChurnPinnedFrames  uint64
	ChurnBlockedAllocs uint64
	// Background-compaction daemon ledger: frames it migrated and free 2MB
	// blocks it rebuilt.
	DaemonMigrated uint64
	DaemonRebuilt  uint64
}

// Memory is the physical memory model.
type Memory struct {
	cfg            Config
	framesPerBlock int
	blocks         []blockState
	// movableFrames counts occupied movable 4KB frames per block (the data
	// compaction must migrate before the block can back a huge page).
	movableFrames []uint16
	// pinnedFrames counts unmovable 4KB frames per block (kernel pages,
	// pinned DMA buffers); any pinned frame poisons the block.
	pinnedFrames []uint16
	freeBlocks   int
	hugeBlocks   int // live 2MB huge pages
	gigaPages    int // live 1GB pages (512 blocks each)
	// movableTotal/pinnedTotal cache the frame census; seedMovable/seedPinned
	// remember the population Fragment installed so Audit can prove frame
	// conservation against the churn ledger.
	movableTotal uint64
	pinnedTotal  uint64
	seedMovable  uint64
	seedPinned   uint64
	stats        Stats
}

// MaxTotalBytes bounds the modeled memory at 1 TiB: 512Ki blocks of
// 5 bytes of model state each, so no configuration Validate accepts can
// exhaust host memory.
const MaxTotalBytes = 1 << 40

// Validate reports why cfg cannot build the model: TotalBytes must be a
// positive multiple of 2MB up to MaxTotalBytes, and MovableFillRatio a
// fraction in [0,1].
func (cfg Config) Validate() error {
	if cfg.TotalBytes == 0 || cfg.TotalBytes%uint64(mem.Page2M) != 0 || cfg.TotalBytes > MaxTotalBytes {
		return fmt.Errorf("physmem: total bytes %d not a positive multiple of 2MB up to %d", cfg.TotalBytes, uint64(MaxTotalBytes))
	}
	if !(cfg.MovableFillRatio >= 0 && cfg.MovableFillRatio <= 1) {
		return fmt.Errorf("physmem: movable fill ratio %v out of [0,1]", cfg.MovableFillRatio)
	}
	return nil
}

// New builds the model with all blocks free. It panics on a config Validate
// refuses.
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := int(cfg.TotalBytes / uint64(mem.Page2M))
	return &Memory{
		cfg:            cfg,
		framesPerBlock: int(mem.Page2M.BasePagesPer()),
		blocks:         make([]blockState, n),
		movableFrames:  make([]uint16, n),
		pinnedFrames:   make([]uint16, n),
		freeBlocks:     n,
	}
}

// Blocks returns the total number of 2MB blocks.
func (m *Memory) Blocks() int { return len(m.blocks) }

// FreeBlocks returns how many blocks are immediately huge-allocable.
func (m *Memory) FreeBlocks() int { return m.freeBlocks }

// Stats returns a copy of the counters.
func (m *Memory) Stats() Stats { return m.stats }

// spare returns the unoccupied frame capacity of block b (0 for blocks
// backing huge pages: their frames belong to the mapping).
func (m *Memory) spare(b int) int {
	if m.blocks[b] == blockHuge {
		return 0
	}
	return m.framesPerBlock - int(m.pinnedFrames[b]) - int(m.movableFrames[b])
}

// reclassify recomputes the cached state of a non-huge block from its frame
// counts, maintaining the freeBlocks tally.
func (m *Memory) reclassify(b int) {
	was := m.blocks[b]
	var now blockState
	switch {
	case m.pinnedFrames[b] > 0:
		now = blockUnmovable
	case m.movableFrames[b] > 0:
		now = blockMovable
	default:
		now = blockFree
	}
	if was == now {
		return
	}
	if was == blockFree {
		m.freeBlocks--
	}
	if now == blockFree {
		m.freeBlocks++
	}
	m.blocks[b] = now
}

// Fragment injects the paper's fragmentation pattern: across fraction frac
// of all 2MB blocks, place one pinned 4KB frame (making the block
// permanently non-huge-allocable); every block is additionally marked as
// holding movable data per MovableFillRatio so that huge allocation
// requires compaction. The rng makes the placement deterministic per seed.
//
// Fragment rebuilds the whole block index, so it must run before any huge
// or giga page is allocated — calling it with live huge pages outstanding
// would silently orphan their blocks while the hugeBlocks/gigaPages tallies
// survive, a state Audit would only flag later. It panics instead.
//
// frac=0.5 reproduces the paper's "50% of total memory fragmented";
// frac=0.9 the 90% case.
func (m *Memory) Fragment(frac float64, rng *rand.Rand) {
	if !(frac >= 0 && frac <= 1) {
		panic(fmt.Sprintf("physmem: fragmentation fraction %v out of [0,1]", frac))
	}
	if m.hugeBlocks > 0 || m.gigaPages > 0 {
		panic(fmt.Sprintf("physmem: Fragment with %d 2MB and %d 1GB pages outstanding (fragment memory before allocating huge pages)",
			m.hugeBlocks, m.gigaPages))
	}
	fill := uint16(m.cfg.MovableFillRatio * float64(m.framesPerBlock))
	// A pinned frame shares its block with the movable fill; cap the fill so
	// the block never exceeds capacity at MovableFillRatio 1.0.
	pinnedFill := fill
	if int(pinnedFill) > m.framesPerBlock-1 {
		pinnedFill = uint16(m.framesPerBlock - 1)
	}
	// Choose the unmovable blocks uniformly.
	perm := rng.Perm(len(m.blocks))
	nUnmovable := int(frac * float64(len(m.blocks)))
	m.freeBlocks = 0
	m.movableTotal, m.pinnedTotal = 0, 0
	for i, b := range perm {
		if i < nUnmovable {
			m.blocks[b] = blockUnmovable
			m.pinnedFrames[b] = 1
			// The pinned frame plus whatever movable data shares the block.
			m.movableFrames[b] = pinnedFill
			m.pinnedTotal++
			m.movableTotal += uint64(pinnedFill)
			continue
		}
		m.pinnedFrames[b] = 0
		if fill > 0 {
			m.blocks[b] = blockMovable
			m.movableFrames[b] = fill
			m.movableTotal += uint64(fill)
		} else {
			m.blocks[b] = blockFree
			m.movableFrames[b] = 0
			m.freeBlocks++
		}
	}
	m.seedMovable = m.movableTotal
	m.seedPinned = m.pinnedTotal
}

// eachDest visits migration destination blocks in preference order:
// already-poisoned (pinned) blocks first — they can never back a huge page,
// so parking data there costs nothing — then partially-filled movable
// blocks, then (only when allowFree is set) free blocks as a last resort.
// Within each class the scan is by ascending index, so placement is
// deterministic. src and the [exLo,exHi) window are never destinations.
// Visiting stops when the visitor returns true.
func (m *Memory) eachDest(src, exLo, exHi int, allowFree bool, visit func(b int) bool) {
	classOf := func(b int) int {
		switch m.blocks[b] {
		case blockUnmovable:
			return 0
		case blockMovable:
			return 1
		case blockFree:
			return 2
		}
		return -1 // huge: never a destination
	}
	maxClass := 1
	if allowFree {
		maxClass = 2
	}
	for class := 0; class <= maxClass; class++ {
		for b := range m.blocks {
			if b == src || (b >= exLo && b < exHi) || classOf(b) != class || m.spare(b) == 0 {
				continue
			}
			if visit(b) {
				return
			}
		}
	}
}

// migrateOut moves every movable frame out of block src into other blocks'
// spare capacity (see eachDest for destination order). It returns the
// frames moved and whether migration succeeded; on failure (no destination
// capacity) nothing moves and MigrationFailures is counted. The caller is
// responsible for repurposing the emptied source block.
func (m *Memory) migrateOut(src, exLo, exHi int, allowFree bool) (int, bool) {
	need := int(m.movableFrames[src])
	if need == 0 {
		return 0, true
	}
	capacity := 0
	m.eachDest(src, exLo, exHi, allowFree, func(b int) bool {
		capacity += m.spare(b)
		return capacity >= need
	})
	if capacity < need {
		m.stats.MigrationFailures++
		return 0, false
	}
	moved := 0
	m.eachDest(src, exLo, exHi, allowFree, func(b int) bool {
		take := m.spare(b)
		if take > need-moved {
			take = need - moved
		}
		m.movableFrames[b] += uint16(take)
		m.reclassify(b)
		moved += take
		return moved >= need
	})
	m.movableFrames[src] = 0
	m.reclassify(src)
	return need, true
}

// HugePagesInUse returns the number of live 2MB huge pages (1GB pages are
// counted separately by GigaPagesInUse).
func (m *Memory) HugePagesInUse() int { return m.hugeBlocks }

// AllocHuge tries to obtain one 2MB-aligned physical block for a huge page.
// It prefers an already-free block; otherwise it compacts the movable block
// requiring the fewest migrations, relocating its frames into other blocks'
// spare capacity. It returns the number of 4KB frames that had to be
// migrated (0 when a free block existed) and ok=false when no block can be
// made available — all remaining blocks pinned or huge, or the evicted
// frames would not fit anywhere (memory effectively full).
func (m *Memory) AllocHuge() (migrated int, ok bool) {
	// Fast path: a free block.
	for i, b := range m.blocks {
		if b == blockFree {
			m.blocks[i] = blockHuge
			m.freeBlocks--
			m.hugeBlocks++
			m.stats.HugeAllocs++
			return 0, true
		}
	}
	// Compaction path: pick the cheapest movable block. If its frames don't
	// fit elsewhere, no costlier block's would either (it needs more space
	// and offers the same destinations), so one attempt decides.
	best := -1
	for i, b := range m.blocks {
		if b == blockMovable && (best < 0 || m.movableFrames[i] < m.movableFrames[best]) {
			best = i
		}
	}
	if best < 0 {
		m.stats.HugeAllocFailures++
		return 0, false
	}
	moved, moveOK := m.migrateOut(best, -1, -1, false)
	if !moveOK {
		m.stats.HugeAllocFailures++
		return 0, false
	}
	m.blocks[best] = blockHuge
	if m.pinnedFrames[best] != 0 {
		panic("physmem: compacted a pinned block")
	}
	m.freeBlocks-- // migrateOut reclassified best to free
	m.hugeBlocks++
	m.stats.Compactions++
	m.stats.FramesMigrated += uint64(moved)
	m.stats.HugeAllocs++
	return moved, true
}

// FreeHuge returns one 2MB huge page's block to the free pool (demotion or
// process exit). It panics if no 2MB huge page is outstanding, surfacing
// accounting bugs in the OS policies.
func (m *Memory) FreeHuge() {
	if m.hugeBlocks == 0 {
		panic("physmem: FreeHuge with no huge block outstanding")
	}
	m.hugeBlocks--
	for i, b := range m.blocks {
		if b == blockHuge {
			m.blocks[i] = blockFree
			m.freeBlocks++
			m.stats.HugeFrees++
			return
		}
	}
	panic("physmem: huge block count/state mismatch")
}

// AllocBase records a 4KB allocation. Base pages always succeed in these
// experiments (the workloads fit in memory); the call exists for accounting
// symmetry and for the bloat metric.
func (m *Memory) AllocBase(n uint64) { m.stats.BaseAllocs += n }

// Churn applies one tick of ambient allocator activity: allocFrames movable
// or pinned 4KB allocations land in blocks with spare capacity, and
// freeFrames movable frames are released, both at deterministic
// rng-chosen positions. Each allocation is pinned with probability
// pinnedFrac — pinned churn (kernel allocations, DMA buffers) accumulates,
// steadily poisoning blocks the way long-running systems fragment, while
// movable churn redistributes compactable data. Allocations that find no
// spare capacity are dropped and counted (ChurnBlockedAllocs): the machine
// is genuinely full.
func (m *Memory) Churn(rng *rand.Rand, allocFrames, freeFrames int, pinnedFrac float64) {
	n := len(m.blocks)
	// probe scans forward from a random block to the first one the accept
	// function takes, wrapping once; -1 means no block qualifies.
	probe := func(accept func(b int) bool) int {
		start := rng.Intn(n)
		for off := 0; off < n; off++ {
			if b := (start + off) % n; accept(b) {
				return b
			}
		}
		return -1
	}
	for i := 0; i < allocFrames; i++ {
		pinned := pinnedFrac > 0 && rng.Float64() < pinnedFrac
		var b int
		if pinned {
			// Grouping by mobility: pinned allocations fall back to blocks
			// that are already unmovable, then movable ones, and take a
			// pristine free block only as a last resort — the kernel's
			// pageblock migratetype fallback order, which is what keeps
			// sporadic kernel allocations from salting every free block.
			b = probe(func(b int) bool { return m.blocks[b] == blockUnmovable && m.spare(b) > 0 })
			if b < 0 {
				b = probe(func(b int) bool { return m.blocks[b] == blockMovable && m.spare(b) > 0 })
			}
		}
		if !pinned || b < 0 {
			if b = probe(func(b int) bool { return m.spare(b) > 0 }); b < 0 {
				m.stats.ChurnBlockedAllocs += uint64(allocFrames - i)
				break
			}
		}
		if pinned {
			m.pinnedFrames[b]++
			m.pinnedTotal++
			m.stats.ChurnPinnedFrames++
		} else {
			m.movableFrames[b]++
			m.movableTotal++
			m.stats.ChurnAllocFrames++
		}
		m.reclassify(b)
	}
	for i := 0; i < freeFrames; i++ {
		b := probe(func(b int) bool { return m.blocks[b] != blockHuge && m.movableFrames[b] > 0 })
		if b < 0 {
			break
		}
		m.movableFrames[b]--
		m.movableTotal--
		m.stats.ChurnFreeFrames++
		m.reclassify(b)
	}
}

// Compact runs one pass of the kcompactd-style background daemon: within a
// migration budget of at most budget 4KB frames, it repeatedly empties the
// cheapest movable block — relocating its frames into pinned or other
// movable blocks, never consuming a free block — to proactively rebuild
// free 2MB blocks ahead of demand. It returns the frames migrated and the
// blocks freed; migrated never exceeds budget.
func (m *Memory) Compact(budget int) (migrated, rebuilt int) {
	for {
		best := -1
		for i, b := range m.blocks {
			if b == blockMovable && (best < 0 || m.movableFrames[i] < m.movableFrames[best]) {
				best = i
			}
		}
		if best < 0 || int(m.movableFrames[best]) > budget-migrated {
			return
		}
		moved, ok := m.migrateOut(best, -1, -1, false)
		if !ok {
			// No destination capacity: a costlier source would need even
			// more, so the pass is over.
			return
		}
		migrated += moved
		rebuilt++
		m.stats.DaemonMigrated += uint64(moved)
		m.stats.DaemonRebuilt++
	}
}

// Publish adds the memory model's counters and block census into s under
// prefix.
func (m *Memory) Publish(s obs.Snapshot, prefix string) {
	s.Add(prefix+".huge.allocs", float64(m.stats.HugeAllocs))
	s.Add(prefix+".huge.alloc_failures", float64(m.stats.HugeAllocFailures))
	s.Add(prefix+".huge.frees", float64(m.stats.HugeFrees))
	s.Add(prefix+".giga.allocs", float64(m.stats.GigaAllocs))
	s.Add(prefix+".giga.alloc_failures", float64(m.stats.GigaAllocFailures))
	s.Add(prefix+".giga.frees", float64(m.stats.GigaFrees))
	s.Add(prefix+".compactions", float64(m.stats.Compactions))
	s.Add(prefix+".frames_migrated", float64(m.stats.FramesMigrated))
	s.Add(prefix+".migration_failures", float64(m.stats.MigrationFailures))
	s.Add(prefix+".base_allocs", float64(m.stats.BaseAllocs))
	s.Add(prefix+".churn.alloc_frames", float64(m.stats.ChurnAllocFrames))
	s.Add(prefix+".churn.free_frames", float64(m.stats.ChurnFreeFrames))
	s.Add(prefix+".churn.pinned_frames", float64(m.stats.ChurnPinnedFrames))
	s.Add(prefix+".churn.blocked_allocs", float64(m.stats.ChurnBlockedAllocs))
	s.Add(prefix+".daemon.frames_migrated", float64(m.stats.DaemonMigrated))
	s.Add(prefix+".daemon.blocks_rebuilt", float64(m.stats.DaemonRebuilt))
	s.Add(prefix+".blocks.huge", float64(m.hugeBlocks))
	s.Add(prefix+".blocks.free", float64(m.freeBlocks))
	s.Add(prefix+".frames.movable", float64(m.movableTotal))
	s.Add(prefix+".frames.pinned", float64(m.pinnedTotal))
	s.Add(prefix+".giga.pages", float64(m.gigaPages))
}

// Audit cross-checks the cached free/huge/giga tallies and frame totals
// against a fresh census of the block index and verifies per-block
// bookkeeping, including frame conservation: the movable/pinned populations
// must equal what Fragment seeded plus the churn ledger — compaction
// migrates frames, it never creates or destroys them. It returns one
// human-readable message per violation (empty means consistent). The model
// does not track which window belongs to which 1GB page, so the huge check
// is census-level: every blockHuge block must be owned by either a 2MB page
// or one of the gigaPages windows.
func (m *Memory) Audit() []string {
	var bad []string
	var free, huge int
	var movable, pinned uint64
	for i, b := range m.blocks {
		movable += uint64(m.movableFrames[i])
		pinned += uint64(m.pinnedFrames[i])
		if used := int(m.movableFrames[i]) + int(m.pinnedFrames[i]); used > m.framesPerBlock {
			bad = append(bad, fmt.Sprintf("physmem: block %d holds %d frames, capacity %d", i, used, m.framesPerBlock))
		}
		switch b {
		case blockFree:
			free++
			if m.movableFrames[i] != 0 || m.pinnedFrames[i] != 0 {
				bad = append(bad, fmt.Sprintf("physmem: free block %d holds %d movable + %d pinned frames",
					i, m.movableFrames[i], m.pinnedFrames[i]))
			}
		case blockHuge:
			huge++
			if m.movableFrames[i] != 0 || m.pinnedFrames[i] != 0 {
				bad = append(bad, fmt.Sprintf("physmem: huge block %d holds %d movable + %d pinned frames",
					i, m.movableFrames[i], m.pinnedFrames[i]))
			}
		case blockMovable:
			if m.movableFrames[i] == 0 || m.pinnedFrames[i] != 0 {
				bad = append(bad, fmt.Sprintf("physmem: movable block %d holds %d movable + %d pinned frames",
					i, m.movableFrames[i], m.pinnedFrames[i]))
			}
		case blockUnmovable:
			if m.pinnedFrames[i] == 0 {
				bad = append(bad, fmt.Sprintf("physmem: unmovable block %d has no pinned frame", i))
			}
		}
	}
	if free != m.freeBlocks {
		bad = append(bad, fmt.Sprintf("physmem: freeBlocks=%d but census counts %d", m.freeBlocks, free))
	}
	if movable != m.movableTotal {
		bad = append(bad, fmt.Sprintf("physmem: movableTotal=%d but census counts %d", m.movableTotal, movable))
	}
	if pinned != m.pinnedTotal {
		bad = append(bad, fmt.Sprintf("physmem: pinnedTotal=%d but census counts %d", m.pinnedTotal, pinned))
	}
	if want := m.seedMovable + m.stats.ChurnAllocFrames - m.stats.ChurnFreeFrames; movable != want {
		bad = append(bad, fmt.Sprintf("physmem: %d movable frames but seed %d + churn ledger accounts for %d (frames created or destroyed)",
			movable, m.seedMovable, want))
	}
	if want := m.seedPinned + m.stats.ChurnPinnedFrames; pinned != want {
		bad = append(bad, fmt.Sprintf("physmem: %d pinned frames but seed %d + churn ledger accounts for %d",
			pinned, m.seedPinned, want))
	}
	if want := m.hugeBlocks + blocksPerGiga*m.gigaPages; huge != want {
		bad = append(bad, fmt.Sprintf("physmem: %d huge-state blocks but %d 2MB pages + %d 1GB pages account for %d",
			huge, m.hugeBlocks, m.gigaPages, want))
	}
	if m.freeBlocks < 0 || m.hugeBlocks < 0 || m.gigaPages < 0 {
		bad = append(bad, fmt.Sprintf("physmem: negative tally free=%d huge=%d giga=%d", m.freeBlocks, m.hugeBlocks, m.gigaPages))
	}
	return bad
}

// String summarizes the block population.
func (m *Memory) String() string {
	var free, movable, unmovable, huge int
	for _, b := range m.blocks {
		switch b {
		case blockFree:
			free++
		case blockMovable:
			movable++
		case blockUnmovable:
			unmovable++
		case blockHuge:
			huge++
		}
	}
	return fmt.Sprintf("physmem{blocks=%d free=%d movable=%d unmovable=%d huge=%d frames{movable=%d pinned=%d}}",
		len(m.blocks), free, movable, unmovable, huge, m.movableTotal, m.pinnedTotal)
}
