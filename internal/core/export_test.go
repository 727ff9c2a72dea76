package core

import "unsafe"

// GainPagesOf reports what a copy-on-write volume update of flows clones
// of e's gain arena: the number of distinct gain pages holding the flows'
// visits, their bytes, and the page-table and page-bitset bytes of the
// shards they lie in.
func GainPagesOf(e *Engine, flows []int) (pages int, pageBytes, tableBytes uint64) {
	seen := map[[2]int]bool{}
	shards := map[int]bool{}
	for _, f := range flows {
		si := e.shardIndexForFlow(f)
		sh := &e.shards[si]
		lo, hi := sh.flowRange(f)
		for _, v := range sh.flowNode[lo:hi] {
			pg := int(v) >> gainPageShift
			if !seen[[2]int{si, pg}] {
				seen[[2]int{si, pg}] = true
				pageBytes += uint64(len(sh.gainPage(pg))) * 8
			}
		}
		shards[si] = true
	}
	for si := range shards {
		np := uint64(e.shards[si].numGainPages())
		tableBytes += np*uint64(unsafe.Sizeof([]float64(nil))) + (np+63)/64*8
	}
	return len(seen), pageBytes, tableBytes
}

// ClonedGains reports, by shard of e, the gains its page table holds in
// clones (0 on a shard without a table) and the shard's gains in all.
func ClonedGains(e *Engine) (cloned, total []int) {
	for si := range e.shards {
		sh := &e.shards[si]
		c := 0
		for _, pg := range sh.gainPages {
			c += len(pg)
		}
		cloned, total = append(cloned, c), append(total, len(sh.visitFlow))
	}
	return cloned, total
}
