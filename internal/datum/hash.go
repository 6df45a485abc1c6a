package datum

import "math"

// The key hash: the one hash of a key the engine computes — the executor's
// hash tables and spill partitions, DISTINCT and the reference evaluator's
// groups. Values Compare calls equal hash equal: a family tag, then a number
// as HashBits (an INT as its float64, which needs no canonical form, a BOOL
// as the number 0 or 1), a string as its bytes (a dictionary code as its
// string), NULL as its tag alone. Column values fold into an FNV-1 product.
// A number's bits are finalized (MixHash) before they are folded: FNV's
// multiply carries a bit only upward, so the exponent and top mantissa bits
// that tell small integers apart would leave the word after a column or two,
// and keys of several such columns would collide. The product's low bits
// depend on the low bits of its inputs only, so a bucket or partition index
// is always taken from the finalized hash.

// HashOffset is the key hash of no column.
const HashOffset uint64 = 14695981039346656037

func fnvMix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// MixHash is the 64-bit murmur finalizer. It is a bijection, so finalized
// hashes are equal exactly when the raw ones are.
func MixHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// HashInit resets per-row key hashes to HashOffset.
func HashInit(h []uint64) {
	for i := range h {
		h[i] = HashOffset
	}
}

func hashNum(h, bits uint64) uint64 { return fnvMix(fnvMix(h, 2), MixHash(bits)) }

func hashStr(h uint64, s string) uint64 {
	h = fnvMix(h, 3)
	for j := 0; j < len(s); j++ {
		h = fnvMix(h, uint64(s[j]))
	}
	return h
}

// HashD folds d into the key hash h.
func HashD(h uint64, d D) uint64 {
	switch d.k {
	case KindNull:
		return fnvMix(h, 0)
	case KindBool, KindInt:
		return hashNum(h, math.Float64bits(float64(d.i)))
	case KindFloat:
		return hashNum(h, HashBits(d.f))
	case KindString:
		return hashStr(h, d.s)
	}
	return h
}

// Hash returns the finalized key hash of d alone, consistent with Equal.
func (d D) Hash() uint64 { return MixHash(HashD(HashOffset, d)) }

// HashInto folds the rows sel of v into the key hashes h, h[k] row sel[k]'s,
// exactly as HashD folds the rows' datums, in typed loops.
func (v *Vec) HashInto(sel []int32, h []uint64) {
	if v.anyKind || v.kind == KindNull {
		for k, i := range sel {
			h[k] = HashD(h[k], v.D(int(i)))
		}
		return
	}
	nulls := v.Nulls()
	switch v.kind {
	case KindInt, KindBool:
		for k, i := range sel {
			if nulls.Get(int(i)) {
				h[k] = fnvMix(h[k], 0)
			} else {
				h[k] = hashNum(h[k], math.Float64bits(float64(v.Ints[i])))
			}
		}
	case KindFloat:
		for k, i := range sel {
			if nulls.Get(int(i)) {
				h[k] = fnvMix(h[k], 0)
			} else {
				h[k] = hashNum(h[k], HashBits(v.Floats[i]))
			}
		}
	case KindString:
		// A dictionary column hashes the looked-up string, so its codes meet
		// plain strings and other dictionaries on equal hashes.
		for k, i := range sel {
			switch {
			case nulls.Get(int(i)):
				h[k] = fnvMix(h[k], 0)
			case v.Dict != nil:
				h[k] = hashStr(h[k], v.Dict.Vals[v.Ints[i]])
			default:
				h[k] = hashStr(h[k], v.Strs[i])
			}
		}
	}
}
