package main

import "math"

// rng is splitmix64: tiny, fast and fully determined by its seed, so a
// workload seed reproduces the same inputs on every host and Go version.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x243f6a8885a308d3}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// keyChooser draws key indexes in [0, n).
type keyChooser interface{ next(r *rng) uint64 }

type uniform struct{ n uint64 }

func (u uniform) next(r *rng) uint64 { return r.intn(u.n) }

// zipf draws ranks with the Gray et al. method used by YCSB and scatters
// them over the key space with a hash, so hot keys do not share buckets.
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(m uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) next(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return scramble(rank) % z.n
}

func scramble(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	return v ^ v>>33
}

// Op kinds packed into the top byte of an op-ring entry.
const (
	opRead uint64 = iota
	opUpsert
	opRMW
)

const keyMask = 1<<56 - 1

// mix gives the share of each op kind, in percent.
type mix struct{ read, upsert, rmw int }

// opRing pre-generates n ops (kind<<56 | key) so the measured loop spends no
// time drawing random numbers; callers cycle through it.
func opRing(n int, keys keyChooser, m mix, r *rng) []uint64 {
	ring := make([]uint64, n)
	for i := range ring {
		k := keys.next(r)
		kind := opRead
		switch p := int(r.intn(100)); {
		case p < m.read:
		case p < m.read+m.upsert:
			kind = opUpsert
		default:
			kind = opRMW
		}
		ring[i] = kind<<56 | k
	}
	return ring
}
