package core

import "sync"

// TaskMap assigns tasks to shards. The MPI controller and the Legion SPMD
// controller use it for static placement; the Charm++ controller ignores it
// and lets the runtime place (and migrate) tasks.
type TaskMap interface {
	// Shard returns the shard the given task is assigned to.
	Shard(id TaskId) ShardId
	// Ids returns the list of task ids assigned to the given shard.
	Ids(shard ShardId) []TaskId
	// ShardCount returns the number of shards tasks are distributed over.
	ShardCount() int
}

// ModuloMap maps a contiguous task id space [0, taskCount) onto shards in
// round robin: task t runs on shard t mod shardCount. It is the default task
// map from the paper (Listing 3).
type ModuloMap struct {
	shards int
	tasks  int
}

// NewModuloMap returns a modulo map over shardCount shards and taskCount
// contiguously numbered tasks. It panics when either count is not positive,
// mirroring the constructor preconditions of the paper's base class.
func NewModuloMap(shardCount, taskCount int) *ModuloMap {
	if shardCount <= 0 {
		panic("core: ModuloMap requires at least one shard")
	}
	if taskCount < 0 {
		panic("core: ModuloMap requires a non-negative task count")
	}
	return &ModuloMap{shards: shardCount, tasks: taskCount}
}

// Shard implements TaskMap.
func (m *ModuloMap) Shard(id TaskId) ShardId {
	return ShardId(uint64(id) % uint64(m.shards))
}

// Ids implements TaskMap.
func (m *ModuloMap) Ids(shard ShardId) []TaskId {
	if shard < 0 || int(shard) >= m.shards {
		return nil
	}
	var ids []TaskId
	for t := int(shard); t < m.tasks; t += m.shards {
		ids = append(ids, TaskId(t))
	}
	return ids
}

// ShardCount implements TaskMap.
func (m *ModuloMap) ShardCount() int { return m.shards }

// BlockMap maps a contiguous task id space onto shards in contiguous blocks:
// the first ceil(n/s) tasks on shard 0, the next on shard 1, and so on.
// Block placement keeps neighboring task ids on the same shard, which suits
// graphs whose communication is id-local (e.g. neighbor dataflows).
type BlockMap struct {
	shards int
	tasks  int
	block  int
}

// NewBlockMap returns a block map over shardCount shards and taskCount
// contiguously numbered tasks.
func NewBlockMap(shardCount, taskCount int) *BlockMap {
	if shardCount <= 0 {
		panic("core: BlockMap requires at least one shard")
	}
	if taskCount < 0 {
		panic("core: BlockMap requires a non-negative task count")
	}
	block := (taskCount + shardCount - 1) / shardCount
	if block == 0 {
		block = 1
	}
	return &BlockMap{shards: shardCount, tasks: taskCount, block: block}
}

// Shard implements TaskMap.
func (m *BlockMap) Shard(id TaskId) ShardId {
	s := int(uint64(id)) / m.block
	if s >= m.shards {
		s = m.shards - 1
	}
	return ShardId(s)
}

// Ids implements TaskMap.
func (m *BlockMap) Ids(shard ShardId) []TaskId {
	if shard < 0 || int(shard) >= m.shards {
		return nil
	}
	lo := int(shard) * m.block
	hi := lo + m.block
	if int(shard) == m.shards-1 {
		hi = m.tasks
	}
	if hi > m.tasks {
		hi = m.tasks
	}
	var ids []TaskId
	for t := lo; t < hi; t++ {
		ids = append(ids, TaskId(t))
	}
	return ids
}

// ShardCount implements TaskMap.
func (m *BlockMap) ShardCount() int { return m.shards }

// ListMap maps an explicit, possibly non-contiguous id enumeration onto
// shards in round robin over the enumeration order: the i-th id lives on
// shard i mod shards.
type ListMap struct {
	shards int
	byTask map[TaskId]ShardId
	byShrd [][]TaskId
}

// NewListMap distributes the given ids (in the given order) round-robin over
// shardCount shards.
func NewListMap(shardCount int, ids []TaskId) *ListMap {
	if shardCount <= 0 {
		panic("core: ListMap requires at least one shard")
	}
	m := &ListMap{
		shards: shardCount,
		byTask: make(map[TaskId]ShardId, len(ids)),
		byShrd: make([][]TaskId, shardCount),
	}
	for i, id := range ids {
		s := ShardId(i % shardCount)
		m.byTask[id] = s
		m.byShrd[s] = append(m.byShrd[s], id)
	}
	return m
}

// Shard implements TaskMap. Unknown tasks map to shard 0.
func (m *ListMap) Shard(id TaskId) ShardId { return m.byTask[id] }

// Ids implements TaskMap.
func (m *ListMap) Ids(shard ShardId) []TaskId {
	if shard < 0 || int(shard) >= m.shards {
		return nil
	}
	return append([]TaskId(nil), m.byShrd[shard]...)
}

// ShardCount implements TaskMap.
func (m *ListMap) ShardCount() int { return m.shards }

// GraphMap is the default placement of a graph: Plan.Spread's rule, which
// reads the graph's structure. Plan.Place resolves a GraphMap against the
// plan it places, so Initialize compiles the graph once; Shard and Ids,
// called standalone, compile the graph on first use.
type GraphMap struct {
	shards int
	g      TaskGraph

	once    sync.Once
	plan    *Plan // nil when g does not compile
	shardOf []int32
	byShard [][]TaskId
}

// NewGraphMap returns the default placement of g over shardCount shards:
// each dependency level (Height-1) is cut into shardCount runs of ascending
// ids, so heap-numbered trees keep whole subtrees on one shard and every
// level is balanced to within one task.
func NewGraphMap(shardCount int, g TaskGraph) *GraphMap {
	if shardCount <= 0 {
		panic("core: GraphMap requires at least one shard")
	}
	return &GraphMap{shards: shardCount, g: g}
}

// resolve compiles the graph and places it, once.
func (m *GraphMap) resolve() {
	m.once.Do(func() {
		p, err := Compile(m.g)
		if err != nil {
			return
		}
		m.plan, m.shardOf = p, p.Spread(m.shards)
		m.byShard = make([][]TaskId, m.shards)
		for i, s := range m.shardOf {
			m.byShard[s] = append(m.byShard[s], p.ids[i])
		}
	})
}

// Shard implements TaskMap. Unknown tasks, and every task of a graph that
// does not compile, map to shard 0.
func (m *GraphMap) Shard(id TaskId) ShardId {
	m.resolve()
	if m.plan != nil {
		if i, ok := m.plan.Index(id); ok {
			return ShardId(m.shardOf[i])
		}
	}
	return 0
}

// Ids implements TaskMap; nil for every shard of a graph that does not
// compile.
func (m *GraphMap) Ids(shard ShardId) []TaskId {
	m.resolve()
	if m.plan == nil || shard < 0 || int(shard) >= m.shards {
		return nil
	}
	return append([]TaskId(nil), m.byShard[shard]...)
}

// ShardCount implements TaskMap.
func (m *GraphMap) ShardCount() int { return m.shards }

// Spread is Place(NewGraphMap(shards, p)) without the map: the default
// placement, by dense index. Within each level, ids ascending, the k-th of
// the level's n tasks goes to shard k*shards/n.
func (p *Plan) Spread(shards int) []int32 {
	size := make([]int, p.max)
	for _, h := range p.height {
		size[h-1]++
	}
	seen := make([]int, p.max)
	shardOf := make([]int32, len(p.ids))
	for i, h := range p.height {
		shardOf[i] = int32(seen[h-1] * shards / size[h-1])
		seen[h-1]++
	}
	return shardOf
}

// FuncMap adapts a placement function to the TaskMap interface. The id
// enumeration must cover every task the function will be asked about.
type FuncMap struct {
	shards int
	ids    []TaskId
	fn     func(TaskId) ShardId
}

// NewFuncMap returns a task map that places each enumerated id with fn.
func NewFuncMap(shardCount int, ids []TaskId, fn func(TaskId) ShardId) *FuncMap {
	if shardCount <= 0 {
		panic("core: FuncMap requires at least one shard")
	}
	return &FuncMap{shards: shardCount, ids: append([]TaskId(nil), ids...), fn: fn}
}

// Shard implements TaskMap.
func (m *FuncMap) Shard(id TaskId) ShardId { return m.fn(id) }

// Ids implements TaskMap.
func (m *FuncMap) Ids(shard ShardId) []TaskId {
	var out []TaskId
	for _, id := range m.ids {
		if m.fn(id) == shard {
			out = append(out, id)
		}
	}
	return out
}

// ShardCount implements TaskMap.
func (m *FuncMap) ShardCount() int { return m.shards }
