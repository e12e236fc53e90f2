package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/persist"
	"repro/internal/workload"
)

// RecoveryHarness implements RecoveryRunner over a real durable
// kvstore server: phase one drives a deterministic malicious-mixed
// workload in batches and kills the store mid-group-commit at a
// seed-derived point; phase two recovers in a fresh server from the
// same directory. The harness maintains a host-side shadow of every
// acknowledged mutation, so the oracle can compare the recovered state
// against exactly the committed prefix.
type RecoveryHarness struct {
	// Dir is the scratch root; every run uses a fresh subdirectory.
	Dir  string
	runs int
}

// recoveryCapacity is sized so the scenario never evicts: recovered
// state is then exactly the acknowledged history (the documented LRU
// caveat in kvstore/persist.go never kicks in).
const recoveryCapacity = 64 << 20

func (h *RecoveryHarness) newServer(dir string, workers int) (*kvstore.Server, error) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, 1, recoveryCapacity)
	if err != nil {
		return nil, err
	}
	return kvstore.NewServer(sys, cache, kvstore.ServerConfig{
		Mode:         kvstore.ModeSDRaD,
		Workers:      workers,
		InterArrival: time.Nanosecond,
		Persist:      &kvstore.PersistConfig{Dir: dir, Fsync: true, SnapshotEvery: 4},
	})
}

// RunRecovery implements RecoveryRunner.
func (h *RecoveryHarness) RunRecovery(sc RecoveryScenario) (RecoveryRun, error) {
	h.runs++
	dir := filepath.Join(h.Dir, fmt.Sprintf("run-%03d", h.runs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return RecoveryRun{}, err
	}
	workers := sc.Workers
	if workers <= 0 {
		workers = 1
	}
	batchSize := sc.Batch
	if batchSize <= 0 {
		batchSize = 8
	}
	requests := sc.Requests
	if requests <= 0 {
		requests = 200
	}
	totalBatches := (requests + batchSize - 1) / batchSize

	srv, err := h.newServer(dir, workers)
	if err != nil {
		return RecoveryRun{}, fmt.Errorf("campaign: recovery phase 1: %w", err)
	}
	fs, ok := srv.Store().(*persist.FileStore)
	if !ok {
		return RecoveryRun{}, fmt.Errorf("campaign: recovery needs a FileStore, got %T", srv.Store())
	}

	kv, err := workload.NewKV(workload.KVConfig{
		Seed:        sc.Seed,
		Keys:        256,
		ValueSize:   96,
		GetFraction: 0.4, // write-heavy: commits to tear
	})
	if err != nil {
		return RecoveryRun{}, err
	}
	// Every 7th request is malicious, so killed commits and rewound
	// batches interleave — the interaction the oracle exists to check.
	gen := &workload.MaliciousEvery{G: kv, N: 7}

	// Seed-derived kill point: a batch in the second half of the run,
	// torn at a fraction deep enough to leave header bytes behind.
	rng := workload.NewRNG(sc.Seed ^ 0x7265636f76657279) // "recovery"
	killBatch := totalBatches/2 + int(rng.Uint64()%uint64((totalBatches+1)/2))
	if killBatch >= totalBatches {
		killBatch = totalBatches - 1
	}
	killFrac := 0.1 + 0.8*float64(rng.Uint64()%1000)/1000

	shadow := make(map[string][]byte)
	acked := 0
	killed := false
	reqIdx := 0
	for b := 0; b < totalBatches && !killed; b++ {
		n := batchSize
		if remain := requests - reqIdx; remain < n {
			n = remain
		}
		batch := make([]kvstore.BatchRequest, n)
		for i := range batch {
			batch[i] = kvstore.BatchRequest{ClientID: reqIdx, Req: gen.Next()}
			reqIdx++
		}
		if b == killBatch {
			fs.KillNextAppend(killFrac)
		}
		out := srv.HandleBatch(batch)
		// A torn group commit withdraws the batch's mutation acks; any
		// such response marks the whole batch uncommitted.
		for _, resp := range out {
			if errors.Is(resp.Err, persist.ErrKilled) || errors.Is(resp.Err, persist.ErrClosed) {
				killed = true
			}
		}
		if killed {
			break
		}
		acked++
		for i, resp := range out {
			if !resp.OK || resp.Err != nil || resp.Contained {
				continue
			}
			switch batch[i].Req.Op {
			case workload.OpSet:
				shadow[batch[i].Req.Key] = append([]byte(nil), batch[i].Req.Value...)
			case workload.OpDelete:
				delete(shadow, batch[i].Req.Key)
			}
		}
	}
	// The doomed process "crashes": its dead store closes without flush.
	if cerr := srv.Close(); cerr != nil && !errors.Is(cerr, persist.ErrClosed) {
		return RecoveryRun{}, fmt.Errorf("campaign: recovery phase 1 close: %w", cerr)
	}

	// Phase 2: a fresh server recovers from the same directory.
	srv2, err := h.newServer(dir, workers)
	if err != nil {
		return RecoveryRun{}, fmt.Errorf("campaign: recovery phase 2: %w", err)
	}
	recovered, err := srv2.Cache().Dump()
	if err != nil {
		return RecoveryRun{}, fmt.Errorf("campaign: recovery dump: %w", err)
	}
	fs2, ok := srv2.Store().(*persist.FileStore)
	if !ok {
		return RecoveryRun{}, fmt.Errorf("campaign: recovery phase 2 store is %T", srv2.Store())
	}
	info := fs2.Info()
	if err := srv2.Close(); err != nil {
		return RecoveryRun{}, fmt.Errorf("campaign: recovery phase 2 close: %w", err)
	}

	return RecoveryRun{
		CommittedDigest: DigestState(shadow),
		RecoveredDigest: DigestState(recovered),
		AckedBatches:    acked,
		TotalBatches:    totalBatches,
		TornTail:        info.TornBytes > 0,
	}, nil
}
