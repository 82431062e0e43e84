// Package lru is the module's one least-recently-used map. The service
// keeps two, plans charged by wire length and compiled entries charged by
// artifacts held, and the durable plan store indexes its entry files
// with a third, charged by payload bytes.
package lru

import (
	"container/list"
	"iter"
)

// Cache is a cost-weighted least-recently-used map: Put evicts from the
// cold end, passing over pinned items, until the total cost fits the
// budget, and a value dearer than the whole budget is not kept. A budget
// <= 0 is unlimited. Cache is not goroutine-safe; its owner serializes
// access under its own lock.
type Cache[V any] struct {
	capCost, cost int64
	ll            list.List // front = most recently used; values are *item[V]
	index         map[string]*list.Element
}

type item[V any] struct {
	key  string
	val  V
	cost int64
	pins int
}

// New returns an empty cache with the given budget.
func New[V any](capCost int64) *Cache[V] {
	return &Cache[V]{capCost: capCost, index: make(map[string]*list.Element)}
}

// Len, Cost and Cap are the number of values held, their total cost and
// the budget.
func (c *Cache[V]) Len() int    { return len(c.index) }
func (c *Cache[V]) Cost() int64 { return c.cost }
func (c *Cache[V]) Cap() int64  { return c.capCost }

// Get returns the value under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*item[V]).val, true
}

// Put stores v under key at the given cost, most recently used and
// replacing any value there, then evicts until the budget holds. It
// returns the keys it dropped, key itself when v is dearer than the
// whole budget, so the owner can release what they name.
func (c *Cache[V]) Put(key string, v V, cost int64) []string {
	c.Remove(key)
	if c.capCost > 0 && cost > c.capCost {
		return []string{key}
	}
	c.index[key] = c.ll.PushFront(&item[V]{key: key, val: v, cost: cost})
	c.cost += cost
	var dropped []string
	for el := c.ll.Back(); el != nil && c.capCost > 0 && c.cost > c.capCost; {
		prev := el.Prev()
		if it := el.Value.(*item[V]); it.pins == 0 {
			c.Remove(it.key)
			dropped = append(dropped, it.key)
		}
		el = prev
	}
	return dropped
}

// Pin holds key's value against eviction until unpin is called, once.
// The pin belongs to the value, not the key: if the key is removed, or
// removed and stored again, unpin releases the old value and no other.
func (c *Cache[V]) Pin(key string) (unpin func(), ok bool) {
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	it := el.Value.(*item[V])
	it.pins++
	return func() { it.pins-- }, true
}

// Remove drops the value under key, if any.
func (c *Cache[V]) Remove(key string) {
	if el, ok := c.index[key]; ok {
		c.cost -= c.ll.Remove(el).(*item[V]).cost
		delete(c.index, key)
	}
}

// All yields the keys and values from most to least recently used.
func (c *Cache[V]) All() iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for el := c.ll.Front(); el != nil; el = el.Next() {
			if it := el.Value.(*item[V]); !yield(it.key, it.val) {
				return
			}
		}
	}
}
