// Package lifecycle implements the post-deployment operations the paper's
// §2.1 and §3.4 argue must shape network design: live expansion (Clos
// through patch panels with minimal rewiring, per Zhao et al.; Jellyfish
// and Xpander incremental ToR addition), the Jupiter fat-tree→
// direct-connect conversion of §4.3, decommissioning with
// safe-to-remove analysis, and the lifecycle-complexity metrics of Zhang
// et al. (rewiring steps, links per panel, panels touched).
package lifecycle

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"physdep/internal/patchpanel"
	"physdep/internal/units"
)

// ClosFabric models the indirection layer of a patch-panel Clos (§4.1):
// every aggregation block's uplinks terminate on panel front ports, every
// spine block's downlinks on panel back ports, and jumpers decide the
// logical agg↔spine striping. Expansion then means re-jumpering at the
// panels instead of pulling new floor fiber — the Zhao et al. design.
type ClosFabric struct {
	Aggs   int
	Spines int
	Panels []*patchpanel.Device

	frontOwner [][]int // per panel: front port -> agg block (-1 unused)
	backOwner  [][]int // per panel: back port -> spine block (-1 unused)
}

// NewClosFabric builds a fabric with uplinksPerAgg uplinks per agg block
// and matching spine capacity, spread round-robin across panels of
// panelPorts ports. Total front ports needed: aggs*uplinksPerAgg; the
// same number of back ports is distributed over the spines.
func NewClosFabric(aggs, spines, uplinksPerAgg, panelPorts int) (*ClosFabric, error) {
	if aggs < 1 || spines < 1 || uplinksPerAgg < 1 || panelPorts < 1 {
		return nil, fmt.Errorf("lifecycle: all Clos fabric parameters must be positive")
	}
	total := aggs * uplinksPerAgg
	if total%spines != 0 {
		return nil, fmt.Errorf("lifecycle: %d total uplinks not divisible by %d spines", total, spines)
	}
	nPanels := (total + panelPorts - 1) / panelPorts
	cf := &ClosFabric{Aggs: aggs, Spines: spines}
	for p := 0; p < nPanels; p++ {
		cf.addPanel(panelPorts)
	}
	// Attach agg uplinks and spine downlinks to ports round-robin so each
	// panel sees a balanced slice of every block.
	idx := 0
	for a := 0; a < aggs; a++ {
		for u := 0; u < uplinksPerAgg; u++ {
			cf.frontOwner[idx%nPanels][idx/nPanels] = a
			idx++
		}
	}
	perSpine := total / spines
	idx = 0
	for s := 0; s < spines; s++ {
		for d := 0; d < perSpine; d++ {
			cf.backOwner[idx%nPanels][idx/nPanels] = s
			idx++
		}
	}
	return cf, nil
}

// addPanel appends panel-<n>, an unjumpered panel of ports ports at
// 0.5 dB, whose ports no block owns yet, and returns its owner rows.
func (cf *ClosFabric) addPanel(ports int) (frontOwner, backOwner []int) {
	cf.Panels = append(cf.Panels,
		patchpanel.New(patchpanel.PanelKind, fmt.Sprintf("panel-%d", len(cf.Panels)), ports, 0.5))
	frontOwner, backOwner = make([]int, ports), make([]int, ports)
	for i := range frontOwner {
		frontOwner[i], backOwner[i] = -1, -1
	}
	cf.frontOwner = append(cf.frontOwner, frontOwner)
	cf.backOwner = append(cf.backOwner, backOwner)
	return frontOwner, backOwner
}

// Demand returns the currently realized trunk-count matrix.
func (cf *ClosFabric) Demand() [][]int {
	m := make([][]int, cf.Aggs)
	for a := range m {
		m[a] = make([]int, cf.Spines)
	}
	for pi, panel := range cf.Panels {
		for f := 0; f < panel.Ports; f++ {
			a := cf.frontOwner[pi][f]
			b := panel.BackOf(f)
			if a == -1 || b == -1 {
				continue
			}
			if s := cf.backOwner[pi][b]; s != -1 {
				m[a][s]++
			}
		}
	}
	return m
}

// UniformDemand returns the balanced striping: each agg block spreads
// uplinksPerAgg trunks as evenly as possible across spines, remainders
// rotated per agg so spine loads balance.
func UniformDemand(aggs, spines, uplinksPerAgg int) [][]int {
	m := make([][]int, aggs)
	base := uplinksPerAgg / spines
	extra := uplinksPerAgg % spines
	for a := range m {
		m[a] = make([]int, spines)
		for s := range m[a] {
			m[a][s] = base
		}
		for e := 0; e < extra; e++ {
			m[a][(a+e)%spines]++
		}
	}
	return m
}

// RewireReport quantifies a reconfiguration in Zhang-style lifecycle
// metrics.
type RewireReport struct {
	JumperMoves   int // live jumpers relocated (the Zhao objective)
	NewConnects   int // jumpers added on previously free fronts
	Removals      int // jumpers removed outright
	Parks         int // extra cycle-breaking disconnects
	PanelsTouched int // panels with at least one step
	Steps         int // total physical actions
	MaxPerPanel   int // worst per-panel step count (per-visit work)
}

// LaborMinutes prices the rewire at the given minutes per jumper action.
func (r RewireReport) LaborMinutes(perStep units.Minutes) units.Minutes {
	return units.Minutes(float64(perStep) * float64(r.Steps))
}

// Rewire computes and applies the minimal re-jumpering that takes the
// fabric from its current demand matrix to target. Per (agg, spine) pair
// the kept-jumper count is min(current, target) — optimal because ports
// of one block are interchangeable — so the number of live moves is
// Σ(target − min(current, target)). The cross-panel placement of the
// moved trunks is solved by greedy most-free placement with augmenting
// repair (moving a tentative unit between panels to unlock a stuck one).
//
// First wiring is a Rewire from no jumpers: nothing is kept, and every
// trunk is seated first fit as a new connect.
func (cf *ClosFabric) Rewire(target [][]int) (RewireReport, error) {
	if len(target) != cf.Aggs {
		return RewireReport{}, fmt.Errorf("lifecycle: target has %d agg rows, want %d", len(target), cf.Aggs)
	}
	nP := len(cf.Panels)
	// Step 1: keepers and free ports, in one walk. Keeping min(current,
	// target) per pair maximizes kept jumpers; keepers are taken in panel
	// and port order. A kept front enters its panel's target map and
	// leaves the free counts.
	remaining := copyMatrix(target)
	targetMaps := make([][]int, nP) // per panel: front -> target back (-1 none)
	ff := zeroMatrix(nP, cf.Aggs)   // free fronts per (panel, agg)
	fb := zeroMatrix(nP, cf.Spines) // free backs per (panel, spine)
	for pi, panel := range cf.Panels {
		targetMap := make([]int, panel.Ports)
		for f := range targetMap {
			targetMap[f] = -1
			if s := cf.backOwner[pi][f]; s != -1 {
				fb[pi][s]++
			}
			a := cf.frontOwner[pi][f]
			if a == -1 {
				continue
			}
			ff[pi][a]++
			b := panel.BackOf(f)
			if b == -1 {
				continue
			}
			if s := cf.backOwner[pi][b]; s != -1 && remaining[a][s] > 0 {
				remaining[a][s]--
				targetMap[f] = b
				ff[pi][a]--
				fb[pi][s]--
			}
		}
		targetMaps[pi] = targetMap
	}
	// Step 2: decompose the remaining demand across panels.
	place, err := decomposeAcrossPanels(remaining, ff, fb)
	if err != nil {
		return RewireReport{}, err
	}
	// Step 3: seat each panel's placements first fit and apply. First fit
	// gives a front the lowest unused back whose spine it still needs, so
	// each spine's backs go in ascending order: a cursor per spine over
	// its free backs (backs[start[s]:end[s]]) finds the seat in
	// O(spines).
	var rep RewireReport
	start := make([]int, cf.Spines+1)
	for pi, panel := range cf.Panels {
		targetMap := targetMaps[pi]
		backUsed := make([]bool, panel.Ports)
		for _, b := range targetMap {
			if b != -1 {
				backUsed[b] = true
			}
		}
		clear(start)
		for b, s := range cf.backOwner[pi] {
			if s != -1 && !backUsed[b] {
				start[s+1]++
			}
		}
		for s := range cf.Spines {
			start[s+1] += start[s]
		}
		backs := make([]int, start[cf.Spines])
		end := append([]int(nil), start[:cf.Spines]...)
		for b, s := range cf.backOwner[pi] {
			if s != -1 && !backUsed[b] {
				backs[end[s]] = b
				end[s]++
			}
		}
		need := place[pi]
		for f, a := range cf.frontOwner[pi] {
			if a == -1 || targetMap[f] != -1 {
				continue
			}
			best := -1
			for s, n := range need[a] {
				if n > 0 && start[s] < end[s] && (best == -1 || backs[start[s]] < backs[start[best]]) {
					best = s
				}
			}
			if best != -1 {
				targetMap[f] = backs[start[best]]
				start[best]++
				need[a][best]--
			}
		}
		for a := range need {
			for s, n := range need[a] {
				if n > 0 {
					return rep, fmt.Errorf("lifecycle: panel %d could not seat %d trunks agg %d → spine %d (bug)", pi, n, a, s)
				}
			}
		}
		plan, err := panel.PlanReconfigure(targetMap)
		if err != nil {
			return RewireReport{}, fmt.Errorf("panel %d: %w", pi, err)
		}
		if err := panel.Apply(plan); err != nil {
			return RewireReport{}, fmt.Errorf("panel %d: %w", pi, err)
		}
		rep.JumperMoves += plan.Moves
		rep.NewConnects += plan.NewConnects
		rep.Removals += plan.Removals
		rep.Parks += plan.Parks
		steps := len(plan.Steps)
		rep.Steps += steps
		if steps > 0 {
			rep.PanelsTouched++
		}
		if steps > rep.MaxPerPanel {
			rep.MaxPerPanel = steps
		}
	}
	return rep, nil
}

// decomposeAcrossPanels splits demand R[a][s] into per-panel placements
// honoring free-front (ff[p][a]) and free-back (fb[p][s]) capacities.
// The inner pass places units greedily (most-constrained pair first,
// most-free panel choice) with an augmenting relocation search when a
// unit gets stuck. Because each relocation consumes two resources the
// augmentation is not complete, so the outer loop retries with
// deterministically shuffled orders until a pass succeeds. Returns
// per-panel count matrices; each try works on its own copies of ff and
// fb, so the caller's are left as given.
func decomposeAcrossPanels(R [][]int, ff, fb [][]int) ([][][]int, error) {
	const attempts = 64
	var lastErr error
	for try := 0; try < attempts; try++ {
		place, err := decomposeOnce(R, copyMatrix(ff), copyMatrix(fb), uint64(try))
		if err == nil {
			return place, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// decomposeOnce is one placement pass; try varies the unit order and
// panel tie-breaking.
func decomposeOnce(R [][]int, ff, fb [][]int, try uint64) ([][][]int, error) {
	nP := len(ff)
	aggs := len(R)
	spines := 0
	if aggs > 0 {
		spines = len(R[0])
	}
	place := make([][][]int, nP)
	for p := range place {
		place[p] = zeroMatrix(aggs, spines)
	}
	placeUnit := func(p, a, s int) {
		place[p][a][s]++
		ff[p][a]--
		fb[p][s]--
	}
	unplace := func(p, a, s int) {
		place[p][a][s]--
		ff[p][a]++
		fb[p][s]++
	}
	bestPanel := func(a, s int) int {
		best, bestFree := -1, -1
		for p := 0; p < nP; p++ {
			if ff[p][a] > 0 && fb[p][s] > 0 {
				free := ff[p][a]
				if fb[p][s] < free {
					free = fb[p][s]
				}
				if free > bestFree {
					best, bestFree = p, free
				}
			}
		}
		return best
	}
	// Augmenting repair: to place a stuck unit (a, s), search the
	// exchange graph — a front of a (or back of s) at panel p can be
	// freed by relocating one of p's tentative units to another panel,
	// which may itself require freeing resources there, recursively.
	// Visited sets bound the DFS; moves always preserve feasibility, so
	// no rollback is needed.
	type resKey struct {
		p, id, kind int // kind 0 = front of agg id, 1 = back of spine id
	}
	var ensureFront func(p, a int, visited map[resKey]bool) bool
	var ensureBack func(p, s int, visited map[resKey]bool) bool
	relocate := func(p, x, y int, visited map[resKey]bool) bool {
		// Move one tentative unit (x, y) from panel p to some panel r.
		for r := 0; r < nP; r++ {
			if r == p {
				continue
			}
			if ff[r][x] == 0 && !ensureFront(r, x, visited) {
				continue
			}
			if fb[r][y] == 0 && !ensureBack(r, y, visited) {
				continue
			}
			// Deeper relocations may have consumed what was just freed —
			// or moved this very unit already. Re-verify everything
			// before committing.
			if ff[r][x] == 0 || fb[r][y] == 0 || place[p][x][y] == 0 {
				continue
			}
			unplace(p, x, y)
			placeUnit(r, x, y)
			return true
		}
		return false
	}
	ensureFront = func(p, a int, visited map[resKey]bool) bool {
		if ff[p][a] > 0 {
			return true
		}
		k := resKey{p, a, 0}
		if visited[k] {
			return false
		}
		visited[k] = true
		for s2 := 0; s2 < spines; s2++ {
			if place[p][a][s2] > 0 && relocate(p, a, s2, visited) {
				return true
			}
		}
		return false
	}
	ensureBack = func(p, s int, visited map[resKey]bool) bool {
		if fb[p][s] > 0 {
			return true
		}
		k := resKey{p, s, 1}
		if visited[k] {
			return false
		}
		visited[k] = true
		for a2 := 0; a2 < aggs; a2++ {
			if place[p][a2][s] > 0 && relocate(p, a2, s, visited) {
				return true
			}
		}
		return false
	}
	repair := func(a, s int) bool {
		for p := 0; p < nP; p++ {
			visited := map[resKey]bool{}
			if !ensureFront(p, a, visited) {
				continue
			}
			if !ensureBack(p, s, visited) {
				continue
			}
			if ff[p][a] == 0 || fb[p][s] == 0 {
				continue // a relocation consumed what another freed
			}
			placeUnit(p, a, s)
			return true
		}
		return false
	}
	// Order pairs most-constrained first: fewest compatible panels, then
	// largest demand. Retries shuffle the order to escape bad
	// interleavings the augmenting repair can't undo.
	type pairDemand struct {
		a, s, n, compat int
	}
	var order []pairDemand
	for a := 0; a < aggs; a++ {
		for s := 0; s < spines; s++ {
			if R[a][s] == 0 {
				continue
			}
			compat := 0
			for p := 0; p < nP; p++ {
				if ff[p][a] > 0 && fb[p][s] > 0 {
					compat++
				}
			}
			order = append(order, pairDemand{a, s, R[a][s], compat})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].compat != order[j].compat {
			return order[i].compat < order[j].compat
		}
		if order[i].n != order[j].n {
			return order[i].n > order[j].n
		}
		if order[i].a != order[j].a {
			return order[i].a < order[j].a
		}
		return order[i].s < order[j].s
	})
	if try > 0 {
		rng := rand.New(rand.NewPCG(try, try^0xdec0de))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, pd := range order {
		for u := 0; u < pd.n; u++ {
			if p := bestPanel(pd.a, pd.s); p >= 0 {
				placeUnit(p, pd.a, pd.s)
				continue
			}
			if !repair(pd.a, pd.s) {
				return nil, fmt.Errorf("lifecycle: could not realize %d trunks agg %d → spine %d (after repair)", pd.n-u, pd.a, pd.s)
			}
		}
	}
	return place, nil
}

func zeroMatrix(rows, cols int) [][]int {
	m := make([][]int, rows)
	for i := range m {
		m[i] = make([]int, cols)
	}
	return m
}

// ExpandAggs grows the fabric by newAggs aggregation blocks with the same
// per-agg uplink count, adding panels as needed, and rewires to the new
// uniform striping. It returns the rewire report — the E3/E5 measurement.
//
// Spine capacity must absorb the new uplinks: callers grow spines first
// (or accept oversubscription by passing a custom target to Rewire).
func (cf *ClosFabric) ExpandAggs(newAggs, uplinksPerAgg, panelPorts int) (RewireReport, error) {
	if newAggs < 1 {
		return RewireReport{}, fmt.Errorf("lifecycle: newAggs must be >= 1")
	}
	oldAggs := cf.Aggs
	cf.Aggs += newAggs
	// New front ports for the new blocks, on fresh panels.
	needPorts := newAggs * uplinksPerAgg
	added := 0
	for added < needPorts {
		fo, bo := cf.addPanel(panelPorts)
		// Fronts for new aggs; backs must host the spines' matching new
		// downlinks (spine side also grows to absorb the new uplinks).
		for i := 0; i < panelPorts && added < needPorts; i++ {
			fo[i] = oldAggs + added/uplinksPerAgg
			bo[i] = added % cf.Spines // new spine downlinks, spread evenly
			added++
		}
	}
	target := UniformDemand(cf.Aggs, cf.Spines, uplinksPerAgg)
	return cf.Rewire(target)
}

func copyMatrix(m [][]int) [][]int {
	out := make([][]int, len(m))
	for i := range m {
		out[i] = append([]int(nil), m[i]...)
	}
	return out
}
