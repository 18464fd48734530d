// Package ordered walks maps in a fixed order. Go randomises map
// iteration, and on a seeded simulator an effect that follows it gives one
// seed two outcomes; a walk whose order matters ranges over Keys instead.
package ordered

import (
	"cmp"
	"slices"
)

// Keys returns m's keys in ascending order.
func Keys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m { // order-free: sorted below
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
