//! Differential oracle for the chunked batch queue.
//!
//! [`BatchQueue`] skips whole chunks of jobs during a backfill walk or a
//! LOS candidate scan when the chunk's lower bounds prove none of them
//! can start. The policy-level oracles cannot see a wrong skip (the
//! legacy schedulers share the queue and the cycle kernels), so this
//! proptest drives the chunked queue and the flat `VecDeque` queue it
//! replaced ([`LinearBatchQueue`], seen through the `reference-kernels`
//! feature enabled by the crate's self dev-dependency) through the same
//! random operation sequences. After every operation the two queues must
//! hold the same jobs in the same order; `get`, `remove_at`, `remove`,
//! `fitting` and every backfill walk's starts must agree exactly.

use elastisched_sched::queue::reference::LinearBatchQueue;
use elastisched_sched::queue::{Backfill, CHUNK};
use elastisched_sched::{BatchQueue, Freeze, WaitingJob};
use elastisched_sim::{Duration, JobClass, JobId, JobView, SimTime};
use proptest::prelude::*;

const UNIT: u32 = 32;

#[derive(Debug, Clone)]
enum Op {
    /// Append `count` batch jobs of `units` × `dur`.
    Push { count: usize, units: u32, dur: u64 },
    /// Promote a dedicated job into the priority region.
    InsertPriority {
        units: u32,
        dur: u64,
        start: u64,
        scount: u32,
    },
    PopHead,
    BumpHead,
    Get(usize),
    RemoveAt(usize),
    /// Remove by id: an existing job's when `pick` is even, else an id
    /// never issued.
    Remove(usize),
    /// ECC on a queued job: new size and duration, wider or narrower.
    Ecc { pick: usize, units: u32, dur: u64 },
    Fitting {
        from: usize,
        free_units: u32,
        limit: usize,
    },
    Backfill {
        now: u64,
        free_units: u32,
        fret_in: u64,
        extra_units: u32,
        ded: Option<(u64, u32)>,
    },
}

/// One random operation, weighted towards pushes so the queue spans
/// several chunks: `kind` picks the operation, the other draws fill in
/// its arguments.
fn op() -> impl Strategy<Value = Op> {
    (0u32..20, 0usize..1 << 20, 0u32..=10, 1u64..400, 0u64..400, 0u32..=10).prop_map(
        |(kind, pick, units, dur, t, u)| match kind {
            0..=3 => Op::Push {
                count: 1,
                units: units.max(1),
                dur,
            },
            4 => Op::Push {
                count: 1 + pick % (2 * CHUNK),
                units: units.max(1),
                dur,
            },
            5 => Op::InsertPriority {
                units: units.max(1),
                dur,
                start: t % 100,
                scount: u,
            },
            6 | 7 => Op::PopHead,
            8 => Op::BumpHead,
            9 => Op::Get(pick),
            10 | 11 => Op::RemoveAt(pick),
            12 => Op::Remove(pick),
            13 | 14 => Op::Ecc {
                pick,
                units: units.max(1),
                dur,
            },
            15 => Op::Fitting {
                from: pick % 3,
                free_units: units,
                limit: 1 + (t as usize) % (3 * CHUNK),
            },
            _ => Op::Backfill {
                now: t % 100,
                free_units: units,
                fret_in: dur,
                extra_units: u,
                ded: (pick % 2 == 0).then_some((t, (pick / 2 % 11) as u32)),
            },
        },
    )
}

fn batch(id: u64, units: u32, dur: u64) -> JobView {
    JobView {
        id: JobId(id),
        num: units * UNIT,
        dur: Duration::from_secs(dur),
        submit: SimTime::from_secs(id),
        class: JobClass::Batch,
    }
}

/// Apply `op` to both queues and compare what each returns.
fn step(q: &mut BatchQueue, r: &mut LinearBatchQueue, op: &Op, next_id: &mut u64) {
    match *op {
        Op::Push { count, units, dur } => {
            for _ in 0..count {
                let v = batch(*next_id, units, dur);
                *next_id += 1;
                q.push_back(v);
                r.push_back(v);
            }
        }
        Op::InsertPriority {
            units,
            dur,
            start,
            scount,
        } => {
            let v = JobView {
                class: JobClass::Dedicated {
                    requested_start: SimTime::from_secs(start),
                },
                ..batch(*next_id, units, dur)
            };
            *next_id += 1;
            q.insert_priority(v, scount);
            r.insert_priority(v, scount);
        }
        Op::PopHead => prop_assert_eq!(q.pop_head(), r.pop_head()),
        Op::BumpHead => {
            if let (Some(a), Some(b)) = (q.head_mut(), r.head_mut()) {
                a.scount += 1;
                b.scount += 1;
            }
        }
        Op::Get(i) => {
            let i = i % (r.len() + 2);
            prop_assert_eq!(q.get(i), r.get(i));
        }
        Op::RemoveAt(i) => {
            let i = i % (r.len() + 2);
            prop_assert_eq!(q.remove_at(i), r.remove_at(i));
        }
        Op::Remove(pick) => {
            let id = match r.get(pick / 2 % r.len().max(1)) {
                Some(w) if pick % 2 == 0 => w.view.id,
                _ => JobId(u64::MAX),
            };
            prop_assert_eq!(q.remove(id), r.remove(id));
        }
        Op::Ecc { pick, units, dur } => {
            let id = r.get(pick % r.len().max(1)).map_or(JobId(u64::MAX), |w| w.view.id);
            let dur = Duration::from_secs(dur);
            prop_assert_eq!(
                q.apply_ecc(id, units * UNIT, dur),
                r.apply_ecc(id, units * UNIT, dur)
            );
        }
        Op::Fitting {
            from,
            free_units,
            limit,
        } => {
            // A scan may raise the bounds of chunks where nothing fit, so
            // rescan with one unit more: a bound raised too far shows.
            for free in [free_units * UNIT, (free_units + 1) * UNIT] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                q.fitting(from, free, limit, |p, w| a.push((p, *w)));
                r.fitting(from, free, limit, |p, w| b.push((p, *w)));
                prop_assert_eq!(a, b);
            }
        }
        Op::Backfill {
            now,
            free_units,
            fret_in,
            extra_units,
            ded,
        } => {
            let now = SimTime::from_secs(now);
            let pass = Backfill {
                now,
                free: free_units * UNIT,
                shadow: Freeze {
                    fret: now + Duration::from_secs(fret_in),
                    frec: extra_units * UNIT,
                },
                ded: ded.map(|(fret_in, frec_units)| Freeze {
                    fret: now + Duration::from_secs(fret_in),
                    frec: frec_units * UNIT,
                }),
            };
            let (mut pa, mut pb) = (pass, pass);
            let (mut sa, mut sb): (Vec<WaitingJob>, Vec<WaitingJob>) = (Vec::new(), Vec::new());
            q.backfill(&mut pa, |w| sa.push(*w));
            r.backfill(&mut pb, |w| sb.push(*w));
            prop_assert_eq!(sa, sb);
            prop_assert_eq!(pa, pb);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The chunked queue and the flat reference agree on every result
    /// and on their contents after every operation.
    #[test]
    fn chunked_queue_matches_linear_reference(ops in prop::collection::vec(op(), 1..400)) {
        let (mut q, mut r) = (BatchQueue::new(), LinearBatchQueue::new());
        let mut next_id = 0;
        for op in &ops {
            step(&mut q, &mut r, op, &mut next_id);
            prop_assert_eq!(q.len(), r.len());
            prop_assert_eq!(q.is_empty(), r.is_empty());
            prop_assert_eq!(q.head(), r.head());
            prop_assert!(q.iter().eq(r.iter()), "contents diverged after {:?}", op);
        }
    }
}
