//! Per-process resource accounting with charging entities (paper §3.5).
//!
//! Gage assumes "a set of dedicated processes are associated with each
//! charging entity" (a virtual web site). The OS charges CPU and disk usage
//! to the issuing process; once per accounting cycle Gage "traverses the
//! kernel data structure that keeps track of parent-child relationships
//! among processes and sums up the resource usage of all the processes that
//! are associated with each charging entity". Processes may be spawned and
//! exit dynamically (CGI children), and their usage still rolls up to the
//! entity through the process tree.

use gage_core::resource::ResourceVector;
use gage_core::subscriber::SubscriberId;

/// A process id within one simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

#[derive(Debug, Clone)]
struct Process {
    parent: Option<Pid>,
    /// The charging entity this process was launched for (root processes);
    /// children inherit by tree walk.
    entity: Option<SubscriberId>,
    /// Usage accumulated since the last rollup.
    pending: ResourceVector,
    alive: bool,
    /// Live or unreaped children still pointing here via `parent`. A slot
    /// is only recycled once this reaches zero, so a reused pid can never
    /// hijack another process's entity walk.
    children: u32,
}

/// The per-node process table.
///
/// ```rust
/// use gage_cluster::process::ProcessTable;
/// use gage_core::resource::ResourceVector;
/// use gage_core::subscriber::SubscriberId;
///
/// let mut pt = ProcessTable::new();
/// let site = SubscriberId(0);
/// let worker = pt.launch_entity_root(site);
/// let child = pt.spawn_child(worker).unwrap();
/// pt.charge(child, ResourceVector::new(500.0, 0.0, 100.0));
/// pt.charge(worker, ResourceVector::new(100.0, 0.0, 0.0));
/// let mut usage = Vec::new();
/// pt.rollup(&mut usage);
/// assert_eq!(usage[site.0 as usize].cpu_us, 600.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    processes: Vec<Process>,
    /// Reaped slots available for reuse (LIFO, deterministic). Without
    /// recycling, one-shot CGI children grow the table — and the per-cycle
    /// rollup walk — without bound over a long run.
    free: Vec<u32>,
}

impl ProcessTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Launches a root process for a charging entity (done when the entity's
    /// service is started on the node).
    pub fn launch_entity_root(&mut self, entity: SubscriberId) -> Pid {
        self.alloc(Process {
            parent: None,
            entity: Some(entity),
            pending: ResourceVector::ZERO,
            alive: true,
            children: 0,
        })
    }

    fn alloc(&mut self, proc: Process) -> Pid {
        match self.free.pop() {
            Some(slot) => {
                self.processes[slot as usize] = proc;
                Pid(slot)
            }
            None => {
                let pid = Pid(self.processes.len() as u32);
                self.processes.push(proc);
                pid
            }
        }
    }

    /// Forks a child of `parent` (e.g. a CGI worker). The child belongs to
    /// the same charging entity via the process tree.
    ///
    /// Returns `None` if `parent` does not exist or has exited.
    pub fn spawn_child(&mut self, parent: Pid) -> Option<Pid> {
        let p = self.processes.get(parent.0 as usize)?;
        if !p.alive {
            return None;
        }
        self.processes[parent.0 as usize].children += 1;
        Some(self.alloc(Process {
            parent: Some(parent),
            entity: None,
            pending: ResourceVector::ZERO,
            alive: true,
            children: 0,
        }))
    }

    /// Marks a process as exited. Its already-charged usage is still rolled
    /// up at the next cycle (the paper's model reads usage before reaping).
    pub fn exit(&mut self, pid: Pid) {
        if let Some(p) = self.processes.get_mut(pid.0 as usize) {
            p.alive = false;
        }
    }

    /// Charges resource usage to a process (as the kernel's per-thread
    /// accounting would).
    pub fn charge(&mut self, pid: Pid, usage: ResourceVector) {
        if let Some(p) = self.processes.get_mut(pid.0 as usize) {
            p.pending += usage;
        }
    }

    /// Resolves the charging entity of a process by walking up the tree.
    pub fn entity_of(&self, pid: Pid) -> Option<SubscriberId> {
        let mut cur = self.processes.get(pid.0 as usize)?;
        loop {
            if let Some(e) = cur.entity {
                return Some(e);
            }
            cur = self.processes.get(cur.parent?.0 as usize)?;
        }
    }

    /// The accounting-cycle rollup: sums and clears pending usage per
    /// charging entity (traversing parent links for inherited membership)
    /// into `usage`, indexed by subscriber, and reaps exited processes'
    /// state. `usage` is reset to zero first and grown to the highest
    /// entity charged, so a caller that keeps it across cycles allocates
    /// nothing once warm. Each entity's sum runs in process order.
    pub fn rollup(&mut self, usage: &mut Vec<ResourceVector>) {
        usage.fill(ResourceVector::ZERO);
        for i in 0..self.processes.len() {
            let pending = self.processes[i].pending;
            if pending == ResourceVector::ZERO {
                continue;
            }
            if let Some(entity) = self.entity_of(Pid(i as u32)) {
                let e = entity.0 as usize;
                if e >= usage.len() {
                    usage.resize(e + 1, ResourceVector::ZERO);
                }
                usage[e] += pending;
            }
            self.processes[i].pending = ResourceVector::ZERO;
        }
        self.reap();
    }

    /// Recycles exited, fully-drained, childless slots. Ordered ascending
    /// so the free list (popped LIFO) is deterministic: the same sequence
    /// of spawns and exits always reuses the same pids.
    fn reap(&mut self) {
        for i in (0..self.processes.len()).rev() {
            let p = &self.processes[i];
            if p.alive || p.children != 0 || p.pending != ResourceVector::ZERO {
                continue;
            }
            // A free slot must never be reaped twice; mark it by breaking
            // the parent link after accounting the parent's child count.
            if let Some(parent) = self.processes[i].parent.take() {
                self.processes[parent.0 as usize].children -= 1;
            } else if self.processes[i].entity.take().is_none() {
                continue; // already on the free list
            }
            self.free.push(i as u32);
        }
    }

    /// Number of live processes.
    pub fn live_count(&self) -> usize {
        self.processes.iter().filter(|p| p.alive).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One rollup into a fresh buffer.
    fn rolled(pt: &mut ProcessTable) -> Vec<ResourceVector> {
        let mut usage = Vec::new();
        pt.rollup(&mut usage);
        usage
    }

    #[test]
    fn deep_tree_rolls_up_to_entity() {
        let mut pt = ProcessTable::new();
        let site = SubscriberId(3);
        let root = pt.launch_entity_root(site);
        let c1 = pt.spawn_child(root).unwrap();
        let c2 = pt.spawn_child(c1).unwrap();
        pt.charge(c2, ResourceVector::new(1.0, 2.0, 3.0));
        let usage = rolled(&mut pt);
        assert_eq!(usage[3], ResourceVector::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn rollup_clears_pending() {
        let mut pt = ProcessTable::new();
        let site = SubscriberId(0);
        let root = pt.launch_entity_root(site);
        pt.charge(root, ResourceVector::new(5.0, 0.0, 0.0));
        assert_eq!(rolled(&mut pt)[0].cpu_us, 5.0);
        assert!(rolled(&mut pt).is_empty(), "second rollup finds nothing");
    }

    #[test]
    fn multiple_entities_stay_separate() {
        let mut pt = ProcessTable::new();
        let a = SubscriberId(0);
        let b = SubscriberId(1);
        let ra = pt.launch_entity_root(a);
        let rb = pt.launch_entity_root(b);
        pt.charge(ra, ResourceVector::new(10.0, 0.0, 0.0));
        pt.charge(rb, ResourceVector::new(0.0, 20.0, 0.0));
        let usage = rolled(&mut pt);
        assert_eq!(usage[a.0 as usize].cpu_us, 10.0);
        assert_eq!(usage[b.0 as usize].disk_us, 20.0);
    }

    #[test]
    fn exited_process_usage_still_counted_once() {
        let mut pt = ProcessTable::new();
        let site = SubscriberId(0);
        let root = pt.launch_entity_root(site);
        let cgi = pt.spawn_child(root).unwrap();
        pt.charge(cgi, ResourceVector::new(7.0, 0.0, 0.0));
        pt.exit(cgi);
        assert_eq!(rolled(&mut pt)[0].cpu_us, 7.0);
        assert_eq!(pt.live_count(), 1);
        assert!(pt.spawn_child(cgi).is_none(), "cannot fork from the dead");
    }

    #[test]
    fn reaped_cgi_slots_are_recycled() {
        let mut pt = ProcessTable::new();
        let worker = pt.launch_entity_root(SubscriberId(0));
        let first = pt.spawn_child(worker).unwrap();
        pt.charge(first, ResourceVector::new(10.0, 0.0, 0.0));
        pt.exit(first);
        let mut usage = Vec::new();
        pt.rollup(&mut usage);
        assert_eq!(usage[0].cpu_us, 10.0);
        // The drained child's slot is reused; the table stays at two slots
        // however many one-shot children cycle through.
        for _ in 0..100 {
            let child = pt.spawn_child(worker).unwrap();
            assert_eq!(child, first, "recycled slot expected");
            pt.charge(child, ResourceVector::new(1.0, 0.0, 0.0));
            pt.exit(child);
            pt.rollup(&mut usage);
            assert_eq!(usage[0].cpu_us, 1.0);
        }
        assert_eq!(pt.live_count(), 1);
    }

    #[test]
    fn charge_to_unknown_pid_is_ignored() {
        let mut pt = ProcessTable::new();
        pt.charge(Pid(42), ResourceVector::new(1.0, 1.0, 1.0));
        assert!(rolled(&mut pt).is_empty());
    }

    #[test]
    fn reused_buffer_is_zeroed_before_each_rollup() {
        let mut pt = ProcessTable::new();
        let a = pt.launch_entity_root(SubscriberId(0));
        let b = pt.launch_entity_root(SubscriberId(2));
        let mut usage = Vec::new();
        pt.charge(b, ResourceVector::new(3.0, 0.0, 0.0));
        pt.rollup(&mut usage);
        assert_eq!(
            usage,
            vec![
                ResourceVector::ZERO,
                ResourceVector::ZERO,
                ResourceVector::new(3.0, 0.0, 0.0)
            ]
        );
        pt.charge(a, ResourceVector::new(1.0, 0.0, 0.0));
        pt.rollup(&mut usage);
        assert_eq!(
            usage,
            vec![
                ResourceVector::new(1.0, 0.0, 0.0),
                ResourceVector::ZERO,
                ResourceVector::ZERO
            ]
        );
    }
}
