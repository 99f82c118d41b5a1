package bench

import (
	"fmt"
	"io"

	"repro/internal/faster"
)

// shardscale measures the tentpole claim of the partitioned store: with the
// total thread count fixed, splitting the store into shard-per-core CPR
// domains removes cross-core contention on the index, the log tail and the
// epoch table, so zipfian YCSB throughput scales with the shard count while
// commits remain a single coordinated cross-shard checkpoint.
func init() {
	register(Experiment{
		ID:    "shardscale",
		Title: "Shard-per-core scaling, YCSB 50:50 zipfian, fixed threads",
		Paper: "Sec. 7.3 (partitioned variant)",
		Run: func(cfg Config, w io.Writer) error {
			fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "shards", "Mops/sec", "speedup", "lat(us)")
			var base float64
			for _, n := range shardSweep(cfg.Threads) {
				p := fasterBase(cfg, 0.5, true, faster.FoldOver)
				p.Shards = n
				p.WithIndex = false
				d := p.Seconds
				p.CommitAt = []float64{d * 0.5}
				sum, err := RunFaster(p)
				if err != nil {
					return err
				}
				if base == 0 {
					base = sum.Mops
				}
				row := summaryRow(sum)
				row["shards"], row["speedup"] = n, sum.Mops/base
				cfg.Record(row)
				fmt.Fprintf(w, "%-8d %12.2f %11.2fx %12.3f\n",
					n, sum.Mops, sum.Mops/base, sum.AvgLatencyUs)
			}
			return nil
		}})
}

// shardSweep returns 1,2,4,... up to the thread count (a shard per core is
// the intended operating point; more shards than threads adds nothing).
func shardSweep(threads int) []int {
	out := []int{1}
	for n := 2; n <= threads; n *= 2 {
		out = append(out, n)
	}
	return out
}
