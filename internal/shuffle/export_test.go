package shuffle

import (
	"testing"

	"github.com/faaspipe/faaspipe/internal/des/destest"
	"github.com/faaspipe/faaspipe/internal/objectstore"
)

// EmptyFreeReadSets runs an external test on an empty list of read sets
// and gives the package its list back after.
func EmptyFreeReadSets(t *testing.T) { destest.EmptyFreeList(t, &readSets) }

// FreeReadSets returns the read sets on the free list, each named by its
// first stream, with the streams it has room for.
func FreeReadSets() map[*objectstore.ClientStream]int { return freeSets() }
