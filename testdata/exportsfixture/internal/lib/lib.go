// Package lib declares one export only its test calls (Size) and one
// whose method only fmt reaches (Item.String).
package lib

import "fmt"

// Item is what Open returns.
type Item struct{ n int }

// Open returns an Item.
func Open() Item { return Item{n: 1} }

// String is called by fmt through fmt.Stringer, never by name.
func (it Item) String() string { return fmt.Sprint("item ", it.n) }

// Size is used by lib_test.go alone.
func Size() int { return 1 }
