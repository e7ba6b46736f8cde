//! The per-fragment walk the one-pass request path replaced, kept as
//! the oracle the equivalence tests hold that path to: every fragment
//! decomposed on its own, every word decoded and range-checked, and
//! every program staged through the overlay registers
//! (`PramModule::write_overlay` four times, then `execute_program`).
//!
//! `prop_one_pass_equals_the_per_fragment_reference` holds
//! [`PramController`]'s request path to it.

use super::*;
use pram::overlay::regs;

/// The fragments of `[addr, addr + len)`, each decomposed from its
/// own address.
fn reference_frags(map: AddressMap, addr: u64, len: u32) -> Vec<Fragment> {
    assert!(len > 0, "zero-length request");
    let end = addr + len as u64;
    let mut cur = addr;
    let mut frags = Vec::new();
    while cur < end {
        let word_end = (map.word_index(cur) + 1) * map.word_bytes;
        let frag_end = word_end.min(end);
        frags.push(Fragment {
            target: map.decompose(cur),
            global_addr: cur,
            len: (frag_end - cur) as u32,
        });
        cur = frag_end;
    }
    frags
}

impl PramController {
    /// Functional write carrying real bytes (integration tests and the
    /// kernel-image download path use this; the timing-only
    /// [`MemoryBackend::write`] uses a non-zero filler pattern).
    pub(super) fn reference_write_bytes(&mut self, at: Picos, addr: u64, data: &[u8]) -> Access {
        assert!(!data.is_empty(), "empty write");
        let attr_on = self.probe.attr_on();
        let map = self.cfg.map;
        let mut start = Picos::MAX;
        let mut end = Picos::ZERO;
        let mut worst: Option<AttrSpan> = None;
        let mut off = 0usize;
        for frag in reference_frags(map, addr, data.len() as u32) {
            let chunk = &data[off..off + frag.len as usize];
            let mut span = if attr_on {
                Some(AttrSpan::new(at))
            } else {
                None
            };
            let a = self.write_frag(at, &frag, Some(chunk), span.as_mut());
            start = start.min(a.start);
            if a.end > end || worst.is_none() {
                worst = span;
            }
            end = end.max(a.end);
            off += frag.len as usize;
        }
        self.stats.writes += 1;
        self.stats.write_latency_sum += end.saturating_sub(at);
        self.probe.latency("pram.write", end.saturating_sub(at));
        if let Some(span) = &worst {
            self.probe.attr_record("pram.write", span);
        }
        Access { start, end }
    }

    /// Functional read returning the stored bytes.
    pub(super) fn reference_read_bytes(
        &mut self,
        at: Picos,
        addr: u64,
        len: u32,
    ) -> (Access, Vec<u8>) {
        let attr_on = self.probe.attr_on();
        let map = self.cfg.map;
        let mut out = Vec::with_capacity(len as usize);
        let mut start = Picos::MAX;
        let mut end = Picos::ZERO;
        let mut worst: Option<AttrSpan> = None;
        for frag in reference_frags(map, addr, len) {
            let mut span = if attr_on {
                Some(AttrSpan::new(at))
            } else {
                None
            };
            let a = self.read_frag(at, &frag, Some(&mut out), span.as_mut());
            start = start.min(a.start);
            if a.end > end || worst.is_none() {
                worst = span;
            }
            end = end.max(a.end);
        }
        self.stats.reads += 1;
        self.stats.read_latency_sum += end.saturating_sub(at);
        self.probe.latency("pram.read", end.saturating_sub(at));
        if let Some(span) = &worst {
            self.probe.attr_record("pram.read", span);
        }
        (Access { start, end }, out)
    }

    pub(super) fn reference_read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        // Timing-only: identical device walk to `read_bytes` (same burst,
        // RNG draws, stats and energy), minus the data materialization —
        // this is the accurate engine's hot path.
        let attr_on = self.probe.attr_on();
        let map = self.cfg.map;
        let mut start = Picos::MAX;
        let mut end = Picos::ZERO;
        let mut worst: Option<AttrSpan> = None;
        for frag in reference_frags(map, addr, len) {
            let mut span = if attr_on {
                Some(AttrSpan::new(at))
            } else {
                None
            };
            let a = self.read_frag(at, &frag, None, span.as_mut());
            start = start.min(a.start);
            if a.end > end || worst.is_none() {
                worst = span;
            }
            end = end.max(a.end);
        }
        self.stats.reads += 1;
        self.stats.read_latency_sum += end.saturating_sub(at);
        self.probe.latency("pram.read", end.saturating_sub(at));
        if let Some(span) = &worst {
            self.probe.attr_record("pram.read", span);
        }
        Access { start, end }
    }

    pub(super) fn reference_write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        assert!(len > 0, "empty write");
        let attr_on = self.probe.attr_on();
        let map = self.cfg.map;
        let mut start = Picos::MAX;
        let mut end = Picos::ZERO;
        let mut worst: Option<AttrSpan> = None;
        for frag in reference_frags(map, addr, len) {
            let mut span = if attr_on {
                Some(AttrSpan::new(at))
            } else {
                None
            };
            let a = self.write_frag(at, &frag, None, span.as_mut());
            start = start.min(a.start);
            if a.end > end || worst.is_none() {
                worst = span;
            }
            end = end.max(a.end);
        }
        self.stats.writes += 1;
        self.stats.write_latency_sum += end.saturating_sub(at);
        self.probe.latency("pram.write", end.saturating_sub(at));
        if let Some(span) = &worst {
            self.probe.attr_record("pram.write", span);
        }
        Access { start, end }
    }

    /// One word-fragment read through the three-phase protocol.
    ///
    /// With `out: Some(buf)` the fragment's bytes are appended to `buf`
    /// (functional read); with `None` only timing advances — the device
    /// still runs the identical burst (same RNG preamble draw, stats and
    /// energy), it just skips materializing the data copy.
    fn read_frag(
        &mut self,
        at: Picos,
        frag: &Fragment,
        out: Option<&mut Vec<u8>>,
        mut attr: Option<&mut AttrSpan>,
    ) -> Access {
        let interleaves = self.cfg.scheduler.interleaves();
        let ch_idx = frag.target.channel;
        if !interleaves && self.channel_serial[ch_idx] > at {
            // The word is ready to issue but the channel services one
            // access at a time — an overlap the scheduler left on the
            // table.
            self.stats.overlap_losses += 1;
        }
        let earliest = if interleaves {
            at
        } else {
            at.max(self.channel_serial[ch_idx])
        };
        adv(&mut attr, Cause::QueueWait, earliest);
        let md = frag.target.module;
        let rdb_track = self.rdb_track(ch_idx, md);
        let sync = self.cfg.phy.sync_latency;
        let tck = self.cfg.timing.tck();
        let wb = self.cfg.map.word_bytes;
        let line = pow2::div(frag.target.module_addr, wb);
        let resolved = self.retire_resolve(ch_idx, md, frag.target.module_addr);
        let mapped_addr = self.wear_remap(
            earliest,
            frag.target.channel,
            frag.target.module,
            resolved,
            false,
        );
        let phys_slot = pow2::div(mapped_addr, wb);
        let lower_bits;
        let row;
        {
            let ch = &mut self.channels[ch_idx];
            let (module, _, _) = ch.module_and_buses(frag.target.module);
            lower_bits = module.geometry().lower_row_bits;
            let (r, _off) = module.geometry().decode(mapped_addr);
            row = r;
        }

        let plan = {
            let module = self.channels[ch_idx].module(frag.target.module);
            plan_read(module.buffers(), row, lower_bits, interleaves)
        };
        let ba = plan.ba();
        let mut t = earliest + sync;
        adv(&mut attr, Cause::ArrayAccess, t);

        let ch = &mut self.channels[ch_idx];
        let (module, _cmd_bus, dq_bus) = ch.module_and_buses(frag.target.module);

        // Command issue costs one interface clock per 20-bit packet; the
        // command bus runs well under 20% utilized even on streams, so it
        // is modeled as fixed latency rather than a contended resource.
        let part_track = Track::new("partition", row.partition.0 as u32);
        if plan.skips_pre_active() {
            self.stats.pre_active_skips += 1;
            self.probe.instant(part_track, "rab_hit", t);
        } else {
            let pre = module.pre_active(t + tck, ba, row.upper(lower_bits));
            adv(&mut attr, Cause::ArrayAccess, t + tck);
            adv(&mut attr, Cause::PartitionConflict, pre.start);
            adv(&mut attr, Cause::ArrayAccess, pre.end);
            self.probe
                .span(part_track, "pre_active", pre.start, pre.end);
            t = pre.end;
        }
        if plan.skips_activate() {
            self.stats.activate_skips += 1;
            self.probe.instant(part_track, "rdb_hit", t);
        } else {
            let act = module.activate(t + tck, ba, row.lower(lower_bits));
            adv(&mut attr, Cause::ArrayAccess, t + tck);
            adv(&mut attr, Cause::PartitionConflict, act.start);
            adv(&mut attr, Cause::ArrayAccess, act.end);
            self.probe.span(part_track, "activate", act.start, act.end);
            t = act.end;
        }

        // Read phase: the burst arbitrates the shared dq bus; its preamble
        // (RL + tDQSCK) hides behind the previous burst.
        let col_off = (frag.global_addr % WORD_BYTES as u64) as u32;
        let bl = BurstLen::covering(col_off + frag.len);
        let bus_free = dq_bus.probe(Picos::ZERO);
        if interleaves && bus_free > earliest {
            // This word's address phases (tRCD work) ran while an
            // earlier burst still held the channel's DQ bus — the
            // overlap the multi-resource scheduler exists to create.
            self.stats.overlap_wins += 1;
        }
        let (rt, word) = if out.is_some() {
            let (rt, word) = module.read_burst(t + tck, bus_free, ba, 0, bl);
            (rt, Some(word))
        } else {
            (module.read_burst_timed(t + tck, bus_free, ba, 0, bl), None)
        };
        let tburst = self.cfg.timing.tburst(bl);
        dq_bus.reserve(rt.end - tburst, tburst);
        // Full RAB+RDB hit ⇒ the pre-burst window is buffer read-out, not
        // an array sense; otherwise the sense amps are doing the work.
        let sense = if plan.skips_pre_active() && plan.skips_activate() {
            Cause::BufferHit
        } else {
            Cause::ArrayAccess
        };
        adv(&mut attr, Cause::ArrayAccess, t + tck);
        adv(&mut attr, Cause::BurstWait, rt.start);
        adv(&mut attr, sense, rt.end - tburst);
        adv(&mut attr, Cause::DataBurst, rt.end);
        self.probe.span_args(
            rdb_track,
            "read",
            rt.start,
            rt.end,
            &[("bytes", frag.len as u64)],
        );

        // Fault injection + resilience: ECC classification, bounded
        // retry-with-backoff, retirement of lines over their error
        // budget. Faults only cost time — the returned word is never
        // corrupted (correctable flips are fixed in place, uncorrectable
        // reads re-sense until the data lands).
        let mut data_ready = rt.end;
        if let Some(fs) = self.faults.as_mut() {
            let st = fs.lines[ch_idx][md].entry(line).or_default();
            st.reads += 1;
            let read_idx = st.reads;
            let rsw = st.reads_since_write;
            st.reads_since_write += 1;

            let pf = &fs.plan.pram;
            let seed = fs.plan.seed;
            let ecc = fs.ecc;
            let retry = fs.retry;
            let budget = fs.plan.resilience.line_error_budget;
            let pmul = pf.partition_multiplier(row.partition.0 as usize);
            let p_drift = (pf.drift_rate * pmul).min(1.0);
            let ramp = if pf.disturb_window == 0 {
                1.0
            } else {
                rsw.min(pf.disturb_window) as f64 / pf.disturb_window as f64
            };
            let p_disturb = (pf.read_disturb_rate * pmul * ramp).min(1.0);
            let p_rdb = pf.rdb_corruption_rate.min(1.0);
            let stuck = pf.stuck_at_threshold > 0
                && fs.slot_writes[ch_idx][md]
                    .get(&phys_slot)
                    .copied()
                    .unwrap_or(0)
                    >= pf.stuck_at_threshold;
            let (chn, mdn) = (ch_idx as u64, md as u64);
            let draw_flips = |attempt: u64| -> u32 {
                let mut flips = 0u32;
                if p_drift > 0.0 {
                    for trial in 0..u64::from(ecc.strength) + 2 {
                        let labels = [domain::DRIFT, chn, mdn, line, read_idx, attempt, trial];
                        if stream_unit(seed, &labels) < p_drift {
                            flips += 1;
                        }
                    }
                }
                let labels = [domain::DISTURB, chn, mdn, line, read_idx, attempt];
                if p_disturb > 0.0 && stream_unit(seed, &labels) < p_disturb {
                    flips += 1;
                }
                flips
            };
            let rdb_corrupt = |attempt: u64| -> bool {
                let labels = [domain::RDB, chn, mdn, line, read_idx, attempt];
                p_rdb > 0.0 && stream_unit(seed, &labels) < p_rdb
            };

            let flips = draw_flips(0);
            let corrupt = rdb_corrupt(0);
            fs.counters.injected += u64::from(flips) + u64::from(corrupt) + u64::from(stuck);
            let failed =
                stuck || corrupt || matches!(ecc.classify(flips), EccOutcome::Uncorrectable(_));
            if !failed {
                if let EccOutcome::Corrected(_) = ecc.classify(flips) {
                    fs.counters.ecc_corrected += 1;
                }
            } else {
                fs.counters.ecc_uncorrectable += 1;
                let service = rt.end - rt.start;
                let mut recovered = false;
                for attempt in 0..retry.max_retries {
                    fs.counters.retries += 1;
                    data_ready = data_ready + retry.backoff_for(attempt) + service;
                    self.ctrl_energy.charge(E_CTRL_OP);
                    if stuck {
                        continue; // a worn-out line fails every re-sense
                    }
                    let a = u64::from(attempt) + 1;
                    let corrupt2 = rdb_corrupt(a);
                    let flips2 = draw_flips(a);
                    fs.counters.injected += u64::from(flips2) + u64::from(corrupt2);
                    if corrupt2 || matches!(ecc.classify(flips2), EccOutcome::Uncorrectable(_)) {
                        fs.counters.ecc_uncorrectable += 1;
                        continue;
                    }
                    if let EccOutcome::Corrected(_) = ecc.classify(flips2) {
                        fs.counters.ecc_corrected += 1;
                    }
                    recovered = true;
                    break;
                }
                if !recovered {
                    // The line burned its retry budget: charge its error
                    // budget and retire it onto a spare once exceeded.
                    let st = fs.lines[ch_idx][md].entry(line).or_default();
                    st.errors += 1;
                    if st.errors >= budget {
                        st.errors = 0;
                        if let Some(spare) = fs.retire[ch_idx][md].retire(line) {
                            fs.counters.retired_lines += 1;
                            let spare_slot = match self.wear.as_ref() {
                                Some(w) => w[ch_idx][md].map(spare),
                                None => spare,
                            };
                            let to = module.geometry().decode(spare_slot * wb).0;
                            let rel = module.relocate(data_ready, row, to);
                            data_ready = rel.end;
                        }
                    }
                    // Deep recovery (a stronger sense pulse) still lands
                    // the data: faults cost time, never bytes.
                    data_ready += service;
                }
            }
        }
        if data_ready > rt.end {
            let stall = data_ready - rt.end;
            if let Some(fs) = self.faults.as_mut() {
                fs.counters.retry_stall_ps += stall.as_ps();
            }
            adv(&mut attr, Cause::RetryStall, data_ready);
        }

        self.stats.words_read += 1;
        self.ctrl_energy.charge(E_CTRL_OP);
        if !interleaves {
            self.channel_serial[ch_idx] = data_ready;
        }
        // Touch tracking only feeds the selective-erase window search in
        // `write_frag`; schedulers without the optimization skip the
        // per-op hash insert entirely (the map stays empty).
        if self.cfg.scheduler.selective_erase() {
            let wi = self.cfg.map.word_index(frag.global_addr);
            self.last_touch.insert(wi, data_ready);
        }

        if let Some(buf) = out {
            let word = word.expect("functional read ran the data burst");
            let lo = col_off as usize;
            buf.extend_from_slice(&word[lo..lo + frag.len as usize]);
        }
        Access {
            start: earliest,
            end: data_ready,
        }
    }

    /// One word-fragment write through the overlay-window sequence.
    fn write_frag(
        &mut self,
        at: Picos,
        frag: &Fragment,
        data: Option<&[u8]>,
        mut attr: Option<&mut AttrSpan>,
    ) -> Access {
        let ch_idx = frag.target.channel;
        let md = frag.target.module;
        let interleaves = self.cfg.scheduler.interleaves();
        let selective = self.cfg.scheduler.selective_erase();
        if !interleaves && self.channel_serial[ch_idx] > at {
            self.stats.overlap_losses += 1;
        }
        let earliest = if interleaves {
            at
        } else {
            at.max(self.channel_serial[ch_idx])
        };
        let rdb_track = self.rdb_track(ch_idx, md);
        let sync = self.cfg.phy.sync_latency;
        let tck = self.cfg.timing.tck();
        let treset = self.cfg.timing.t_reset_extra + self.cfg.timing.twra;
        let wi = self.cfg.map.word_index(frag.global_addr);

        adv(&mut attr, Cause::QueueWait, earliest);

        // The module's single program buffer gates the next write.
        let pb_free = self.program_buffer_free[ch_idx][md];
        let t0 = earliest.max(pb_free) + sync;
        // Waiting on the previous cell program to release the buffer is
        // the PRAM write wall — the erase/program-blocked bucket.
        adv(&mut attr, Cause::EraseBlocked, earliest.max(pb_free));
        adv(&mut attr, Cause::ArrayAccess, t0);

        let wb = self.cfg.map.word_bytes;
        let line = pow2::div(frag.target.module_addr, wb);
        let resolved = self.retire_resolve(ch_idx, md, frag.target.module_addr);
        let mapped_addr =
            self.wear_remap(t0, frag.target.channel, frag.target.module, resolved, true);
        let phys_slot = pow2::div(mapped_addr, wb);
        let word_addr = mapped_addr & !(WORD_BYTES as u64 - 1);
        let row = {
            let module = self.channels[ch_idx].module(md);
            module.geometry().decode(word_addr).0
        };

        // Selective erasing: if this word was announced as an overwrite
        // target, holds stale data, and both the word and its partition
        // had an idle window long enough for a background RESET, the
        // pre-erase already happened — the coming program is SET-only.
        if selective {
            let module = self.channels[ch_idx].module(md);
            let eligible = self.announced.contains(&wi) && !module.is_pristine(row);
            if eligible {
                let lane_free = module.partition_free_at(row.partition);
                let touch = self.last_touch.get(&wi).copied().unwrap_or(Picos::ZERO);
                let window_start = lane_free.max(touch);
                if window_start + treset <= t0 {
                    let module = self.channels[ch_idx].module_mut(md);
                    let pe = module.pre_erase(window_start, row);
                    debug_assert!(pe.end <= t0 + treset);
                    self.stats.preerase_hits += 1;
                    self.probe.span(
                        Track::new("partition", row.partition.0 as u32),
                        "pre_erase",
                        pe.start,
                        pe.end,
                    );
                } else {
                    self.stats.preerase_misses += 1;
                }
            }
        }

        // §V-B register sequence: command code (0x80), row address (0x8B),
        // burst size (0x93), program buffer (0x800), execute (0xC0).
        let ch = &mut self.channels[ch_idx];
        let (module, _cmd_bus, dq_bus) = ch.module_and_buses(md);

        let mut t = t0;
        let cmd = [0xE9u8];
        let addr_bytes = word_addr.to_le_bytes();
        let mp = [WORD_BYTES as u8];
        let reg_writes: [(u64, &[u8]); 3] = [
            (regs::COMMAND_CODE, &cmd),
            (regs::DATA_ADDRESS, &addr_bytes),
            (regs::MULTI_PURPOSE, &mp),
        ];
        for (offset, bytes) in reg_writes {
            let issue = (t + tck).max(dq_bus.probe(Picos::ZERO));
            let w = module.write_overlay(issue, offset, bytes);
            adv(&mut attr, Cause::BurstWait, issue);
            adv(&mut attr, Cause::DataBurst, w.end);
            let bl = BurstLen::covering(bytes.len() as u32);
            let tburst = self.cfg.timing.tburst(bl);
            dq_bus.reserve(w.end - tburst, tburst);
            t = w.end;
        }

        // Program-buffer fill: read-modify-write semantics for partial
        // words (the device merges against current contents). A full
        // word overwrites every byte, so it skips the read.
        let mut word = if frag.len as usize == WORD_BYTES {
            [0; WORD_BYTES]
        } else {
            module.peek(row)
        };
        let lo = (frag.global_addr % WORD_BYTES as u64) as usize;
        match data {
            Some(bytes) => word[lo..lo + frag.len as usize].copy_from_slice(bytes),
            None => {
                // Timing-only filler: a non-zero pattern derived from the
                // address (zeros would alias the selective-erase path).
                for (i, b) in word[lo..lo + frag.len as usize].iter_mut().enumerate() {
                    *b = 0xA5u8.wrapping_add((frag.global_addr as u8).wrapping_add(i as u8));
                    if *b == 0 {
                        *b = 0xA5;
                    }
                }
            }
        }
        let issue = (t + tck).max(dq_bus.probe(Picos::ZERO));
        let fill = module.write_overlay(issue, regs::PROGRAM_BUFFER, &word);
        adv(&mut attr, Cause::BurstWait, issue);
        adv(&mut attr, Cause::DataBurst, fill.end);
        let tburst = self.cfg.timing.tburst(BurstLen::Bl16);
        dq_bus.reserve(fill.end - tburst, tburst);
        t = fill.end;

        // Execute: one more command packet, then the array program runs in
        // the background; the program buffer frees when it completes.
        let exec_accepted = t + tck * 2;
        adv(&mut attr, Cause::ArrayAccess, exec_accepted);
        let prog = module.execute_program(exec_accepted);

        // Fault injection: SET/RESET program failures and stuck-at wear.
        // Writes are posted, so a failing program costs *background* time
        // (the program buffer stays busy through the re-pulses), not
        // requester latency — until buffer pressure surfaces it.
        let mut prog_end = prog.end;
        if let Some(fs) = self.faults.as_mut() {
            let st = fs.lines[ch_idx][md].entry(line).or_default();
            st.writes += 1;
            st.reads_since_write = 0;
            let write_idx = st.writes;
            let slot_w = fs.slot_writes[ch_idx][md].entry(phys_slot).or_insert(0);
            *slot_w += 1;
            let threshold = fs.plan.pram.stuck_at_threshold;
            let stuck = threshold > 0 && *slot_w >= threshold;
            let p_fail = fs.plan.pram.program_failure_rate.min(1.0);
            let seed = fs.plan.seed;
            let retry = fs.retry;
            let budget = fs.plan.resilience.line_error_budget;
            let service = prog.end - prog.start;
            let (chn, mdn) = (ch_idx as u64, md as u64);
            let fails = |attempt: u64| -> bool {
                if stuck {
                    return true; // worn-out cells reject every pulse
                }
                let labels = [domain::PROGRAM, chn, mdn, line, write_idx, attempt];
                p_fail > 0.0 && stream_unit(seed, &labels) < p_fail
            };
            if fails(0) {
                fs.counters.injected += 1;
                let mut recovered = false;
                for attempt in 0..retry.max_retries {
                    fs.counters.retries += 1;
                    prog_end = prog_end + retry.backoff_for(attempt) + service;
                    self.ctrl_energy.charge(E_CTRL_OP);
                    if !fails(u64::from(attempt) + 1) {
                        recovered = true;
                        break;
                    }
                    fs.counters.injected += 1;
                }
                if !recovered {
                    let st = fs.lines[ch_idx][md].entry(line).or_default();
                    st.errors += 1;
                    if st.errors >= budget {
                        st.errors = 0;
                        if let Some(spare) = fs.retire[ch_idx][md].retire(line) {
                            fs.counters.retired_lines += 1;
                            let spare_slot = match self.wear.as_ref() {
                                Some(w) => w[ch_idx][md].map(spare),
                                None => spare,
                            };
                            let to = module.geometry().decode(spare_slot * wb).0;
                            // Copy the just-programmed line onto its
                            // spare so later reads round-trip.
                            let rel = module.relocate(prog_end, row, to);
                            prog_end = rel.end;
                        }
                    }
                    // The final margin-boosted pulse always lands.
                    prog_end += service;
                }
            }
        }

        self.program_buffer_free[ch_idx][md] = prog_end;
        self.probe.span_args(
            rdb_track,
            "write",
            t0,
            exec_accepted,
            &[("bytes", frag.len as u64)],
        );
        self.probe
            .span(rdb_track, "program", exec_accepted, prog_end);

        self.stats.words_written += 1;
        self.ctrl_energy.charge(E_CTRL_OP);
        if !interleaves {
            self.channel_serial[ch_idx] = exec_accepted;
        }
        // As in `read_frag`: touch tracking exists for selective erasing.
        if selective {
            self.last_touch.insert(wi, prog_end);
        }

        // Posted write: the requester resumes at execute-accept.
        Access {
            start: earliest,
            end: exec_accepted,
        }
    }
}

mod one_pass_tests {
    use super::*;
    use sim_core::fault::{PramFaults, ResiliencePolicy};
    use sim_core::Telemetry;
    use util::json::ToJson;

    /// Where requests go and what they carry: a draw shared by both
    /// sides of the equivalence.
    enum Op {
        Read,
        Write,
        ReadBytes,
        WriteBytes(Vec<u8>),
    }

    #[test]
    fn prop_one_pass_equals_the_per_fragment_reference() {
        // Property: the one-pass request path is the per-fragment walk,
        // bit for bit. For random request sequences — 1 to 8192 B,
        // unaligned, reads and writes interleaved, clocks that queue
        // behind in-flight programs — under every scheduler, with and
        // without a seeded fault plan, wear leveling, write pausing,
        // storing or counting probes and attribution, every request's
        // `Access` and, after it, the stats, fault counters, energy
        // book, attribution records and the snapshot image equal the
        // reference's; the trace and metrics the probes gathered equal
        // at the end.
        util::for_each_case!(32, |rng| {
            let scheduler = SchedulerKind::ALL[rng.range_usize(0, 3)];
            let seed = rng.next_u64();
            let paper = rng.chance(0.5);
            let base = if paper {
                SubsystemConfig::paper(scheduler, seed)
            } else {
                SubsystemConfig::small(scheduler, seed)
            };
            let cfg = SubsystemConfig {
                write_pausing: rng.chance(0.5),
                wear_leveling: rng.chance(0.4).then(|| rng.range_u64(1, 6)),
                ..base
            };
            let plan = rng.chance(0.5).then(|| FaultPlan {
                pram: PramFaults {
                    drift_rate: rng.range_f64(0.0, 0.1),
                    read_disturb_rate: rng.range_f64(0.0, 0.05),
                    program_failure_rate: rng.range_f64(0.0, 0.2),
                    rdb_corruption_rate: rng.range_f64(0.0, 0.05),
                    stuck_at_threshold: rng.range_u64(0, 8),
                    ..Default::default()
                },
                resilience: ResiliencePolicy {
                    line_error_budget: rng.range_u64(1, 3) as u32,
                    ..Default::default()
                },
                ..FaultPlan::seeded(rng.next_u64())
            });
            let build = || {
                let c = PramController::new(cfg);
                match &plan {
                    Some(plan) => c.with_faults(plan),
                    None => c,
                }
            };
            let (mut one, mut reference) = (build(), build());
            // Probes: none, a trace ring, or a ring with attribution — or
            // a counting hub, with or without attribution, where the one
            // pass tallies its words per request and the reference still
            // offers one call per event, so `trace.events_recorded` holds
            // the tally to the per-call count.
            let hubs = match rng.range_u64(0, 4) {
                0 => None,
                1 => Some((Telemetry::new(1 << 16), Telemetry::new(1 << 16))),
                2 => Some((
                    Telemetry::with_attribution(1 << 16),
                    Telemetry::with_attribution(1 << 16),
                )),
                n => {
                    let attribution = n == 4;
                    Some((
                        Telemetry::counting(1 << 6, attribution),
                        Telemetry::counting(1 << 6, attribution),
                    ))
                }
            };
            if let Some((a, b)) = &hubs {
                one.set_probe(a.probe());
                reference.set_probe(b.probe());
            }
            let space = if paper { 1u64 << 20 } else { 1 << 16 };
            let mut t = Picos::ZERO;
            let mut seen: Vec<u64> = Vec::new();
            for i in 0..rng.range_u64(4, 16) {
                let len = rng.range_u64(1, 8192) as u32;
                // Often near a range already touched, so reads hit row
                // buffers and writes overwrite, re-erase and retire.
                let addr = match seen.len() {
                    n if n > 0 && rng.chance(0.5) => {
                        seen[rng.range_usize(0, n - 1)] + rng.range_u64(0, 64)
                    }
                    _ => rng.range_u64(0, space),
                }
                .min(space - u64::from(len));
                seen.push(addr);
                // Mostly a few hundred ns apart, so words queue behind
                // the 10-18 us programs still in flight; sometimes a
                // clock from the past, as another agent's would be.
                t = if rng.chance(0.2) {
                    t.saturating_sub(Picos::from_ns(rng.range_u64(0, 5_000)))
                } else {
                    t + Picos::from_ns(rng.range_u64(0, 800))
                };
                if scheduler.selective_erase() && rng.chance(0.3) {
                    let words: Vec<u64> = (0..u64::from(len).div_ceil(32))
                        .map(|w| addr + w * 32)
                        .collect();
                    one.announce_overwrites(t, &words);
                    reference.announce_overwrites(t, &words);
                }
                let op = match rng.range_u64(0, 3) {
                    0 => Op::Read,
                    1 => Op::Write,
                    2 => Op::ReadBytes,
                    _ => Op::WriteBytes((0..len).map(|_| rng.next_u64() as u8).collect()),
                };
                let (got, want) = match &op {
                    Op::Read => (
                        one.read(t, addr, len),
                        reference.reference_read(t, addr, len),
                    ),
                    Op::Write => (
                        one.write(t, addr, len),
                        reference.reference_write(t, addr, len),
                    ),
                    Op::ReadBytes => {
                        let (a, bytes) = one.read_bytes(t, addr, len);
                        let (b, want) = reference.reference_read_bytes(t, addr, len);
                        assert_eq!(bytes, want, "request {i}: bytes");
                        (a, b)
                    }
                    Op::WriteBytes(data) => (
                        one.write_bytes(t, addr, data),
                        reference.reference_write_bytes(t, addr, data),
                    ),
                };
                assert_eq!(got, want, "request {i}: access");
                assert_eq!(one.stats(), reference.stats(), "request {i}: stats");
                assert_eq!(one.fault_counters(), reference.fault_counters());
                assert_eq!(one.energy(), reference.energy(), "request {i}: energy");
                if let Some((a, b)) = &hubs {
                    assert_eq!(a.attribution(), b.attribution(), "request {i}");
                }
                assert_eq!(
                    one.snapshot_state().unwrap().to_json_string(),
                    reference.snapshot_state().unwrap().to_json_string(),
                    "request {i}: image"
                );
            }
            if let Some((a, b)) = &hubs {
                assert_eq!(a.finish(), b.finish());
            }
        });
    }

    #[test]
    #[should_panic(expected = "beyond module capacity")]
    fn a_request_past_the_modules_panics_on_the_range_check() {
        let mut c = PramController::new(SubsystemConfig::small(SchedulerKind::Final, 1));
        let end = c.capacity_bytes();
        c.read(Picos::ZERO, end - 16, 32);
    }
}
