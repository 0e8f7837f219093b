//! Per-packet scheduling cost of each discipline: one `on_arrival` (stamp
//! computation) plus one `on_departure` (header stamping) per packet, with
//! 48 registered sessions (the paper's per-link session count).
//!
//! Expected shape: FCFS < VirtualClock ≈ Leave-in-Time ≈ SCFQ ≪ WFQ —
//! LiT's stamp is O(1) per packet like VirtualClock's (the paper's
//! efficiency claim), while WFQ pays for advancing the GPS virtual time
//! across the backlogged set.

#![forbid(unsafe_code)]

use lit_baselines::{
    FcfsDiscipline, ScfqDiscipline, StopAndGoDiscipline, VirtualClockDiscipline, WfqDiscipline,
};
use lit_bench::{drive_discipline, register_sessions, Bencher};
use lit_core::LitDiscipline;
use lit_net::{Discipline, LinkParams};
use lit_sim::Duration;

const SESSIONS: u32 = 48;
const PACKETS: u64 = 10_000;

fn bench_discipline(b: &Bencher, name: &str, mk: impl Fn() -> Box<dyn Discipline>) {
    b.run(&format!("sched_ops/{name}/48sess"), || {
        let mut d = mk();
        register_sessions(d.as_mut(), SESSIONS);
        drive_discipline(d.as_mut(), SESSIONS, PACKETS)
    });
}

fn main() {
    let b = Bencher::from_args();
    let link = LinkParams::paper_t1();
    bench_discipline(&b, "fcfs", || Box::new(FcfsDiscipline::new()));
    bench_discipline(&b, "virtualclock", || {
        Box::new(VirtualClockDiscipline::new())
    });
    bench_discipline(&b, "leave-in-time", move || {
        Box::new(LitDiscipline::new(link))
    });
    bench_discipline(&b, "scfq", || Box::new(ScfqDiscipline::new()));
    bench_discipline(&b, "wfq", move || Box::new(WfqDiscipline::new(link)));
    bench_discipline(&b, "stop-and-go", || {
        Box::new(StopAndGoDiscipline::new(Duration::from_ms(10)))
    });
    b.write_json("sched_ops");
}
