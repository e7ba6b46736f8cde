//! The kernel offload and execution model (Figures 9b and 10): pack a
//! multi-application image with `packData`, push it to the accelerator,
//! unpack it server-side and schedule agents through the PSC.
//!
//! ```sh
//! cargo run --release --example offload_model
//! ```

use accel::exec::{AccelConfig, Accelerator};
use accel::kernel::{KernelImage, Segment};
use accel::psc::{PowerSleepController, PscParams};
use accel::sched::MemSchedule;
use host::PcieLink;
use pram_ctrl::{PramController, SchedulerKind, SubsystemConfig};
use sim_core::{MemoryBackend, Picos};
use workloads::{Kernel, Scale, Workload};

fn main() {
    // -- packData: code segments for three applications + shared code.
    let image = KernelImage::pack(vec![
        Segment {
            name: "shared".into(),
            load_addr: 0x0000,
            entry: None,
            payload: vec![0x4E; 2048],
        },
        Segment {
            name: "app0".into(),
            load_addr: 0x1000,
            entry: Some(0x1000),
            payload: vec![0xA0; 4096],
        },
        Segment {
            name: "app1".into(),
            load_addr: 0x3000,
            entry: Some(0x3000),
            payload: vec![0xA1; 4096],
        },
    ]);
    let wire = image.to_bytes();
    println!(
        "packData: {} segments, {} payload bytes, {} on the wire",
        image.segments().len(),
        image.payload_bytes(),
        wire.len()
    );

    // -- pushData: DMA the image over PCIe, interrupt the server.
    let mut link = PcieLink::new(Default::default());
    let dma = link.dma(Picos::ZERO, wire.len() as u64);
    let irq = link.message(dma.end);
    println!(
        "pushData: image DMA done at {}, server interrupted at {}",
        dma.end, irq.end
    );

    // -- unpackData: the server parses metadata and loads each segment
    //    into the PRAM image space.
    let parsed = KernelImage::from_bytes(&wire).expect("image parses");
    let mut pram = PramController::new(SubsystemConfig::paper(SchedulerKind::Final, 3));
    let mut t = irq.end;
    for seg in parsed.segments() {
        let a = pram.write(t, seg.load_addr, seg.payload.len() as u32);
        println!(
            "  load {:<8} -> {:#06x} ({} B), accepted at {}",
            seg.name,
            seg.load_addr,
            seg.payload.len(),
            a.end
        );
        t = a.end;
    }

    // -- PSC choreography: park, plant boot address, revoke.
    let mut psc = PowerSleepController::new(PscParams::default(), 8);
    println!(
        "\nPSC: scheduling {} executable segment(s) onto agents",
        parsed.executables().count()
    );
    for (i, seg) in parsed.executables().enumerate() {
        let agent = i + 1;
        let asleep = psc.sleep(t, agent);
        let awake = psc.wake(asleep, agent);
        println!(
            "  agent {agent}: boot address {:#06x} planted, awake at {awake}",
            seg.entry.expect("executable")
        );
        t = awake;
    }

    // -- Execute a real kernel on the woken agents.
    let accel = Accelerator::new(AccelConfig::default());
    let built = Workload::of(Kernel::Jaco2d, Scale::small()).build(accel.agents());
    let sched = MemSchedule::build(&built.traces, accel.config().l1, accel.config().l2);
    let report = accel.run_schedule_at(t, &sched, &mut pram);
    println!(
        "\nexecution: {} instructions across {} agents in {}, total IPC {:.2}",
        report.instructions,
        built.traces.len(),
        report.total_time,
        report.total_ipc()
    );
    println!(
        "kernel result checksum {:.6} (matches reference: {})",
        built.run.checksum,
        (built.run.checksum
            - Workload::of(Kernel::Jaco2d, Scale::small())
                .reference()
                .checksum)
            .abs()
            < 1e-12
    );
}
