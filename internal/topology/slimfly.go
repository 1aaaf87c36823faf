package topology

import (
	"fmt"

	"physdep/internal/units"
)

// SlimFlyConfig parameterizes a Slim Fly fabric (Besta & Hoefler SC'14),
// built from the McKay–Miller–Širáň graph family: 2q² routers of network
// degree (3q−1)/2 with diameter 2. This implementation supports prime
// q ≡ 1 (mod 4) (the δ = +1 branch of the MMS construction), which covers
// the deployable sizes the Slim Fly paper tabulates (q = 5, 13, 17, 29…).
type SlimFlyConfig struct {
	Q           int // prime, q ≡ 1 (mod 4)
	ServerPorts int // server ports per router
	Rate        units.Gbps
}

// SlimFly builds the MMS graph:
//
//   - routers (0, x, y) and (1, m, c) for x, y, m, c ∈ Z_q;
//   - (0,x,y) ~ (0,x,y′)  iff y−y′ is a nonzero quadratic residue;
//   - (1,m,c) ~ (1,m,c′)  iff c−c′ is a non-residue;
//   - (0,x,y) ~ (1,m,c)   iff y = m·x + c (mod q).
//
// With q ≡ 1 (mod 4), −1 is a quadratic residue, so both generator sets
// are symmetric and the graph is a well-defined undirected graph of
// uniform degree (3q−1)/2 and diameter 2.
func SlimFly(cfg SlimFlyConfig) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := cfg.Q
	// Quadratic residues mod q (nonzero).
	isQR := make([]bool, q)
	for v := 1; v < q; v++ {
		isQR[v*v%q] = true
	}
	deg := (3*q - 1) / 2
	// Node IDs: group 0 router (x, y) = x*q + y; group 1 router (m, c) =
	// q² + m*q + c.
	t := newFabric(fmt.Sprintf("slimfly-q%d", q), q*q*deg, func(f *fabric) {
		for x := 0; x < q; x++ {
			f.switches(q, deg, Node{Role: RoleToR, Radix: deg + cfg.ServerPorts, Rate: cfg.Rate,
				ServerPorts: cfg.ServerPorts, Pod: x}, "r0-", x)
		}
		for m := 0; m < q; m++ {
			f.switches(q, deg, Node{Role: RoleToR, Radix: deg + cfg.ServerPorts, Rate: cfg.Rate,
				ServerPorts: cfg.ServerPorts, Pod: q + m}, "r1-", m)
		}
	})
	id0 := func(x, y int) int { return x*q + y }
	id1 := func(m, c int) int { return q*q + m*q + c }
	// Intra-group-0: y−y′ ∈ QR.
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			for yp := y + 1; yp < q; yp++ {
				if isQR[(y-yp+q)%q] {
					t.Link(id0(x, y), id0(x, yp))
				}
			}
		}
	}
	// Intra-group-1: c−c′ a non-residue.
	for m := 0; m < q; m++ {
		for c := 0; c < q; c++ {
			for cp := c + 1; cp < q; cp++ {
				d := (c - cp + q) % q
				if d != 0 && !isQR[d] {
					t.Link(id1(m, c), id1(m, cp))
				}
			}
		}
	}
	// Cross edges: y = m·x + c.
	for x := 0; x < q; x++ {
		for m := 0; m < q; m++ {
			for c := 0; c < q; c++ {
				y := (m*x + c) % q
				t.Link(id0(x, y), id1(m, c))
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t.Topology, nil
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}
