// Package ps implements the sharded parameter server of the HET-KG /
// DGL-KE architecture: embedding rows live on the server shard co-located
// with the machine that owns them (co-located PS, §IV-A); workers pull rows
// and push gradients through localPull/localPush (shared memory) or
// remotePull/remotePush (the network), and the server applies gradients with
// server-side AdaGrad (Algorithm 4).
package ps

import (
	"fmt"

	"hetkg/internal/kg"
)

// Key identifies one embedding row in the global key space. Entities and
// relations share the space, distinguished by a high bit, so caches, pulls
// and pushes can mix both kinds in a single request.
type Key uint64

const relationBit Key = 1 << 62

// EntityKey returns the key of an entity embedding row.
func EntityKey(e kg.EntityID) Key { return Key(uint32(e)) }

// RelationKey returns the key of a relation embedding row.
func RelationKey(r kg.RelationID) Key { return relationBit | Key(uint32(r)) }

// IsRelation reports whether k identifies a relation row.
func (k Key) IsRelation() bool { return k&relationBit != 0 }

// Entity returns the entity id; the result is meaningless for relation keys.
func (k Key) Entity() kg.EntityID { return kg.EntityID(k &^ relationBit) }

// Relation returns the relation id; meaningless for entity keys.
func (k Key) Relation() kg.RelationID { return kg.RelationID(k &^ relationBit) }

// KeySpace numbers a run's rows densely: entity e has index e and relation
// r has index NumEntity + r, so index order is key order. It is the one
// key → storage rule of a worker's per-key tables (the hot table and its
// optimizer state, the top-k residuals, the degraded replay buffer), as a
// Placement's slot is the rule of a shard's slabs.
type KeySpace struct {
	NumEntity, NumRelation int
}

// Len returns the number of indexes, entities and relations together.
func (s KeySpace) Len() int { return s.NumEntity + s.NumRelation }

// Index returns k's dense index; ok is false for a key outside the space.
func (s KeySpace) Index(k Key) (i int, ok bool) {
	if k.IsRelation() {
		r := uint64(k &^ relationBit)
		return s.NumEntity + int(r), r < uint64(s.NumRelation)
	}
	return int(k), uint64(k) < uint64(s.NumEntity)
}

// Key returns the key at dense index i.
func (s KeySpace) Key(i int) Key {
	if i < s.NumEntity {
		return EntityKey(kg.EntityID(i))
	}
	return RelationKey(kg.RelationID(i - s.NumEntity))
}

// String renders "e:N" or "r:N".
func (k Key) String() string {
	if k.IsRelation() {
		return fmt.Sprintf("r:%d", uint64(k&^relationBit))
	}
	return fmt.Sprintf("e:%d", uint64(k))
}

// Placement maps keys to the server shard (machine) that owns them.
// Entities follow the graph partitioner's assignment (embedding co-located
// with the subgraph that uses it most); relations are striped round-robin,
// as relation usage has no spatial locality.
//
// It also gives each row its slot on its shard, the index of the row in
// the shard's slabs: an entity's slot is its rank among the shard's
// entities in id order, and relation r's is the shard's entity count plus
// r / NumMachines. One Placement is shared by every shard in a process.
type Placement struct {
	numMachines int
	entityPart  []int32
	entityRank  []int32 // entity → its slot on its shard
	entityCount []int   // shard → entities it owns
}

// NewPlacement builds a placement for numMachines shards. entityPart is the
// partitioner's per-entity assignment; every value must be in
// [0, numMachines).
func NewPlacement(numMachines int, entityPart []int32) (*Placement, error) {
	if numMachines < 1 {
		return nil, fmt.Errorf("ps: numMachines %d < 1", numMachines)
	}
	p := &Placement{
		numMachines: numMachines,
		entityPart:  entityPart,
		entityRank:  make([]int32, len(entityPart)),
		entityCount: make([]int, numMachines),
	}
	for e, m := range entityPart {
		if m < 0 || int(m) >= numMachines {
			return nil, fmt.Errorf("ps: entity %d assigned to invalid machine %d of %d", e, m, numMachines)
		}
		p.entityRank[e] = int32(p.entityCount[m])
		p.entityCount[m]++
	}
	return p, nil
}

// NumMachines returns the shard count.
func (p *Placement) NumMachines() int { return p.numMachines }

// NumEntities returns the size of the placed entity universe.
func (p *Placement) NumEntities() int { return len(p.entityPart) }

// Shard returns the machine owning key k.
func (p *Placement) Shard(k Key) int {
	if k.IsRelation() {
		return int(uint32(k.Relation())) % p.numMachines
	}
	return int(p.entityPart[k.Entity()])
}

// slot returns k's slot on machine among numRel relations, and whether
// machine owns k at all: a key outside the entity or relation universe,
// or another shard's, is not owned.
func (p *Placement) slot(k Key, machine, numRel int) (int, bool) {
	if k.IsRelation() {
		r := uint64(k &^ relationBit)
		if r >= uint64(numRel) || int(r%uint64(p.numMachines)) != machine {
			return 0, false
		}
		return p.entityCount[machine] + int(r)/p.numMachines, true
	}
	if uint64(k) >= uint64(len(p.entityPart)) || int(p.entityPart[k]) != machine {
		return 0, false
	}
	return int(p.entityRank[k]), true
}

// shardRelations returns how many of numRel striped relations machine owns.
func (p *Placement) shardRelations(machine, numRel int) int {
	if machine >= numRel {
		return 0
	}
	return (numRel - machine + p.numMachines - 1) / p.numMachines
}
