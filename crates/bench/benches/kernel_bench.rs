//! Simulator substrate throughput: events per second for message
//! ping-pong and contended lock handoffs (keeps the experiment suite's
//! wall-clock honest).

use criterion::{criterion_group, criterion_main, Criterion};
use dsm_net::{
    AppHandle, CostModel, Ctx, Dur, Kind, KindId, NodeBehavior, NodeId, OpOutcome, Payload, Sim,
};
use dsm_sync::{BarrierKind, LockKind, SyncNode, SyncOp};
use std::hint::black_box;

#[derive(Clone)]
enum M {
    Ping(u32),
    Pong(u32),
}
impl Payload for M {
    fn wire_bytes(&self) -> usize {
        8
    }
    fn kind(&self) -> Kind {
        Kind {
            id: KindId(42),
            name: "pp",
        }
    }
}
struct PingNode;
impl NodeBehavior for PingNode {
    type Msg = M;
    type Op = u32;
    type Reply = ();
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: M) {
        match msg {
            M::Ping(k) => ctx.send(from, M::Pong(k)),
            M::Pong(0) => ctx.complete_op(()),
            M::Pong(k) => ctx.send(from, M::Ping(k - 1)),
        }
    }
    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, rounds: u32) -> OpOutcome<()> {
        ctx.send(NodeId(1), M::Ping(rounds));
        OpOutcome::Blocked
    }
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_kernel");
    group.sample_size(20);

    group.bench_function("ping_pong_2000_msgs", |b| {
        b.iter(|| {
            let sim = Sim::new(
                vec![PingNode, PingNode],
                CostModel::uniform(Dur::micros(5), 1),
            );
            let res = sim.run(vec![
                |h: &AppHandle<u32, ()>| h.op(999),
                |_h: &AppHandle<u32, ()>| (),
            ]);
            black_box(res.end_time)
        })
    });

    group.bench_function("queue_lock_8n_x20", |b| {
        b.iter(|| {
            let nodes = SyncNode::cluster(8, LockKind::Queue, BarrierKind::Central);
            let programs: Vec<_> = (0..8)
                .map(|_| {
                    |h: &AppHandle<SyncOp, ()>| {
                        for _ in 0..20 {
                            h.op(SyncOp::Acquire(0));
                            h.advance(Dur::micros(10));
                            h.op(SyncOp::Release(0));
                        }
                    }
                })
                .collect();
            let res = Sim::new(nodes, CostModel::lan_1992()).run(programs);
            black_box(res.stats.total_msgs())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
