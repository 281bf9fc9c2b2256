// Configuration enumeration reproducing Table 2 (§3.1) and sizing a Slim
// NoC for a requested node count (§3.5.3).

package core

import (
	"fmt"

	"repro/internal/gf"
)

// ConfigRow is one row of Table 2: a feasible Slim NoC configuration.
type ConfigRow struct {
	KPrime       int     // network radix k'
	P            int     // concentration
	IdealP       int     // ceil(k'/2): the zero-κ concentration
	Subscription float64 // P / IdealP (the table's over/under-subscription)
	N            int     // network size
	Nr           int     // router count
	Q            int     // input parameter q
	NonPrime     bool    // q is a non-prime prime power
	PowerOfTwoN  bool    // bold in Table 2
	SquareGroups bool    // grey: equally many groups on each die side (q square)
	SquareN      bool    // dark grey: additionally N is a perfect square
}

// EnumerateConfigs reproduces Table 2: all Slim NoC configurations with
// N <= maxN, over all prime-power q, with concentration within the paper's
// 66%–133% subscription window around ceil(k'/2).
func EnumerateConfigs(maxN int) []ConfigRow {
	var rows []ConfigRow
	for q := 2; 2*q*q <= maxN; q++ {
		_, n, ok := gf.IsPrimePower(q)
		if !ok {
			continue
		}
		kp, err := KPrimeFor(q)
		if err != nil {
			continue
		}
		nr := 2 * q * q
		ideal := (kp + 1) / 2
		for conc := 1; conc <= 2*ideal; conc++ {
			ratio := float64(conc) / float64(ideal)
			if ratio < 0.66 || ratio > 4.0/3.0+1e-9 {
				continue
			}
			size := nr * conc
			if size > maxN {
				continue
			}
			rows = append(rows, ConfigRow{
				KPrime:       kp,
				P:            conc,
				IdealP:       ideal,
				Subscription: ratio,
				N:            size,
				Nr:           nr,
				Q:            q,
				NonPrime:     n > 1,
				PowerOfTwoN:  size&(size-1) == 0,
				SquareGroups: isSquare(q),
				SquareN:      isSquare(q) && isSquare(size),
			})
		}
	}
	// Order as in the paper: non-prime fields first, then prime, by k'.
	sortRows(rows)
	return rows
}

func isSquare(n int) bool {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return true
		}
	}
	return false
}

func sortRows(rows []ConfigRow) {
	// Stable three-key sort: non-prime first, then k', then P.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rowLess(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func rowLess(a, b ConfigRow) bool {
	if a.NonPrime != b.NonPrime {
		return a.NonPrime
	}
	if a.KPrime != b.KPrime {
		return a.KPrime < b.KPrime
	}
	return a.P < b.P
}

// FromNetworkSize constructs Slim NoC parameters for a requested node count
// (§3.5.3): it finds q and p with N = 2q^2·p, preferring the smallest
// subscription deviation from the ideal concentration. Returns an error if
// no prime-power q divides the request exactly.
func FromNetworkSize(n int) (Params, error) {
	best := Params{}
	bestDev := -1.0
	for q := 2; 2*q*q <= n; q++ {
		if _, _, ok := gf.IsPrimePower(q); !ok {
			continue
		}
		nr := 2 * q * q
		if n%nr != 0 {
			continue
		}
		p := n / nr
		kp, err := KPrimeFor(q)
		if err != nil {
			continue
		}
		ideal := (kp + 1) / 2
		dev := float64(p)/float64(ideal) - 1
		if dev < 0 {
			dev = -dev
		}
		if bestDev < 0 || dev < bestDev {
			best = Params{Q: q, P: p}
			bestDev = dev
		}
	}
	if bestDev < 0 {
		return Params{}, fmt.Errorf("core: no Slim NoC configuration with exactly %d nodes", n)
	}
	return best, nil
}
