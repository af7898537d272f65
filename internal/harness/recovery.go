package harness

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"brsmn/internal/groupd"
	"brsmn/internal/store"
)

// RecoveryMeasurement is one measured boot scenario: mean wall-clock
// time to open the durable store and reconstruct a Manager from it.
type RecoveryMeasurement struct {
	Name           string `json:"name"`
	NsPerOp        int64  `json:"nsPerOp"`
	Groups         int    `json:"groups"`
	Records        int    `json:"replayedRecords"`
	Plans          int    `json:"plans"`
	SnapshotLoaded bool   `json:"snapshotLoaded"`
}

// RecoveryBenchReport is the machine-readable recovery benchmark behind
// BENCH_recovery.json: how long a restart takes to rebuild control-plane
// state from a pure WAL tail versus a snapshot.
type RecoveryBenchReport struct {
	Experiment string                `json:"experiment"`
	N          int                   `json:"n"`
	Groups     int                   `json:"groups"`
	Trials     int                   `json:"trials"`
	Seed       int64                 `json:"seed"`
	Scenarios  []RecoveryMeasurement `json:"scenarios"`
}

// RecoveryBench measures the two recovery regimes of the durable
// control plane for a population of `groups` multicast groups on an
// n-port network:
//
//   - log-replay: the crash case — no snapshot on disk, every group is
//     reconstructed by replaying create/join records from the WAL.
//   - snapshot-restore: the graceful-restart case — state (including
//     warm plan-cache entries) loads from the snapshot with an empty
//     WAL tail.
//
// Each trial boots a fresh Manager against an on-disk store and times
// OpenFile + NewManager only; populating the directory is untimed.
func RecoveryBench(n, groups, trials int, seed int64) (*RecoveryBenchReport, error) {
	if n < 8 {
		// Each synthetic group needs a source, 2+ members, and two
		// later joins, all distinct ports.
		return nil, fmt.Errorf("harness: recovery bench needs n >= 8, got %d", n)
	}
	if groups < 1 {
		groups = 1
	}
	if trials < 1 {
		trials = 1
	}
	rep := &RecoveryBenchReport{Experiment: "recovery", N: n, Groups: groups, Trials: trials, Seed: seed}

	replay, err := benchLogReplay(n, groups, trials, seed)
	if err != nil {
		return nil, fmt.Errorf("harness: log-replay scenario: %w", err)
	}
	rep.Scenarios = append(rep.Scenarios, replay)

	snap, err := benchSnapshotRestore(n, groups, trials, seed)
	if err != nil {
		return nil, fmt.Errorf("harness: snapshot-restore scenario: %w", err)
	}
	rep.Scenarios = append(rep.Scenarios, snap)
	return rep, nil
}

// groupSpec is one synthetic group's identity across trials.
type groupSpec struct {
	id      string
	source  int
	members []int
	joins   []int
}

func synthGroups(rng *rand.Rand, n, groups int) []groupSpec {
	specs := make([]groupSpec, groups)
	for g := range specs {
		source := rng.Intn(n)
		taken := map[int]bool{source: true}
		pick := func() int {
			for {
				d := rng.Intn(n)
				if !taken[d] {
					taken[d] = true
					return d
				}
			}
		}
		members := make([]int, 2+rng.Intn(min(6, n-3)))
		for i := range members {
			members[i] = pick()
		}
		specs[g] = groupSpec{
			id:      fmt.Sprintf("bench-%d", g),
			source:  source,
			members: members,
			joins:   []int{pick(), pick()},
		}
	}
	return specs
}

// benchLogReplay times recovery from a WAL with no snapshot. The
// recovered manager's Close writes a snapshot and truncates the log, so
// every trial rebuilds the directory from the same record sequence.
func benchLogReplay(n, groups, trials int, seed int64) (RecoveryMeasurement, error) {
	specs := synthGroups(rand.New(rand.NewSource(seed)), n, groups)
	var m RecoveryMeasurement
	var total time.Duration
	for trial := 0; trial < trials; trial++ {
		dir, err := os.MkdirTemp("", "brsmn-recovery-*")
		if err != nil {
			return m, err
		}
		if err := writeWAL(filepath.Join(dir, "log"), specs); err != nil {
			os.RemoveAll(dir)
			return m, err
		}

		start := time.Now()
		st, err := store.OpenFile(filepath.Join(dir, "log"), store.FileConfig{FsyncBatch: 1024})
		if err != nil {
			os.RemoveAll(dir)
			return m, err
		}
		gm, err := groupd.NewManager(groupd.Config{N: n, Store: st})
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			return m, err
		}
		total += time.Since(start)

		rec := gm.Recovery()
		m = RecoveryMeasurement{
			Name:           "log-replay",
			Groups:         rec.Groups,
			Records:        rec.Records,
			Plans:          rec.Plans,
			SnapshotLoaded: rec.SnapshotLoaded,
		}
		gm.Close()
		os.RemoveAll(dir)
	}
	m.NsPerOp = total.Nanoseconds() / int64(trials)
	return m, nil
}

// writeWAL synthesizes the crash-case directory: the record sequence a
// live manager would have appended, fsynced once, never snapshotted.
func writeWAL(dir string, specs []groupSpec) error {
	st, err := store.OpenFile(dir, store.FileConfig{FsyncBatch: 1 << 20})
	if err != nil {
		return err
	}
	defer st.Close()
	for _, s := range specs {
		if _, err := st.Append(store.Record{
			Op: store.OpCreate, Group: s.id, Source: s.source, Gen: 1, Members: s.members,
		}); err != nil {
			return err
		}
		for i, d := range s.joins {
			if _, err := st.Append(store.Record{
				Op: store.OpJoin, Group: s.id, Dest: d, Gen: uint64(2 + i),
			}); err != nil {
				return err
			}
		}
	}
	return st.Sync()
}

// benchSnapshotRestore times recovery from a snapshot with an empty WAL
// tail. The directory is populated once through the real manager (so
// the snapshot carries warm plan-cache entries) and reopened per trial;
// each recovered manager's Close rewrites an equivalent snapshot.
func benchSnapshotRestore(n, groups, trials int, seed int64) (RecoveryMeasurement, error) {
	specs := synthGroups(rand.New(rand.NewSource(seed)), n, groups)
	var m RecoveryMeasurement
	dir, err := os.MkdirTemp("", "brsmn-recovery-*")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)

	st, err := store.OpenFile(filepath.Join(dir, "log"), store.FileConfig{FsyncBatch: 1 << 20})
	if err != nil {
		return m, err
	}
	gm, err := groupd.NewManager(groupd.Config{N: n, Store: st})
	if err != nil {
		st.Close()
		return m, err
	}
	for _, s := range specs {
		if _, err := gm.Create(s.id, s.source, s.members); err != nil {
			gm.Close()
			return m, err
		}
		for _, d := range s.joins {
			if _, err := gm.Join(s.id, d); err != nil {
				gm.Close()
				return m, err
			}
		}
		if _, err := gm.Plan(s.id); err != nil {
			gm.Close()
			return m, err
		}
	}
	if err := gm.Close(); err != nil {
		return m, err
	}

	var total time.Duration
	for trial := 0; trial < trials; trial++ {
		start := time.Now()
		st, err := store.OpenFile(filepath.Join(dir, "log"), store.FileConfig{FsyncBatch: 1024})
		if err != nil {
			return m, err
		}
		gm, err := groupd.NewManager(groupd.Config{N: n, Store: st})
		if err != nil {
			st.Close()
			return m, err
		}
		total += time.Since(start)

		rec := gm.Recovery()
		m = RecoveryMeasurement{
			Name:           "snapshot-restore",
			Groups:         rec.Groups,
			Records:        rec.Records,
			Plans:          rec.Plans,
			SnapshotLoaded: rec.SnapshotLoaded,
		}
		if err := gm.Close(); err != nil {
			return m, err
		}
	}
	m.NsPerOp = total.Nanoseconds() / int64(trials)
	return m, nil
}
