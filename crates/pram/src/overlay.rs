//! The overlay window and program buffer (Section II-B, Figure 4).
//!
//! Writing a storage core directly through an RDB would suspend every
//! operation on the module, so LPDDR2-NVM PRAM routes writes through a
//! register-mapped **overlay window**: a 128-byte block of
//! meta-information and control registers plus a **program buffer**, all
//! relocatable anywhere in the PRAM address space via the *overlay window
//! base address* (OWBA).
//!
//! Register map used by the paper's controller (§V-B):
//!
//! | Offset | Register |
//! |---|---|
//! | `0x00..0x80` | meta-information (window size, buffer offset/size) |
//! | `0x80` | command code |
//! | `0x8B` | data (row) address |
//! | `0x93` | multi-purpose (burst size in bytes) |
//! | `0xC0` | execute |
//! | `0xC8` | status |
//! | `0x800` | program buffer |

use crate::cell::WORD_BYTES;

/// Offsets of the overlay-window registers relative to OWBA.
pub mod regs {
    /// Command-code register (write opcode goes here first).
    pub const COMMAND_CODE: u64 = 0x80;
    /// Data (target row) address register.
    pub const DATA_ADDRESS: u64 = 0x8B;
    /// Multi-purpose register: burst size in bytes.
    pub const MULTI_PURPOSE: u64 = 0x93;
    /// Execute register: writing starts the array program.
    pub const EXECUTE: u64 = 0xC0;
    /// Status register: polls the in-progress program.
    pub const STATUS: u64 = 0xC8;
    /// Start of the program buffer.
    pub const PROGRAM_BUFFER: u64 = 0x800;
}

/// Command codes accepted by the command-code register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OverlayCommand {
    /// Buffered word program.
    BufferedProgram = 0xE9,
    /// Partition erase.
    Erase = 0x20,
}

util::json_enum!(OverlayCommand {
    BufferedProgram,
    Erase
});

/// Status reported through the status register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlayStatus {
    /// No operation pending or running.
    #[default]
    Ready,
    /// An array program/erase is in flight.
    Busy,
}

util::json_enum!(OverlayStatus { Ready, Busy });

/// The overlay-window state machine of one PRAM module.
///
/// The window tracks the staged command, target address and burst size,
/// and buffers up to one row word of program data. The device "executes"
/// the staged program when the execute register is written — the actual
/// array timing is applied by [`crate::device::PramModule`].
///
/// # Examples
///
/// ```
/// use pram::overlay::{regs, OverlayWindow, StagedProgram};
///
/// let mut ow = OverlayWindow::new(0x0); // OWBA = 0
/// ow.write_reg(regs::COMMAND_CODE, 0xE9);
/// ow.write_reg(regs::DATA_ADDRESS, 4096);
/// ow.write_reg(regs::MULTI_PURPOSE, 32);
/// ow.fill_program_buffer(0, &[0xAA; 32]);
/// let staged = ow.execute().expect("a fully staged program");
/// assert_eq!(staged.target_addr, 4096);
/// assert_eq!(staged.data[0], 0xAA);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlayWindow {
    /// Current overlay window base address.
    owba: u64,
    command: Option<u8>,
    target_addr: u64,
    burst_bytes: u32,
    program_buffer: [u8; WORD_BYTES],
    buffer_valid_bytes: u32,
    status: OverlayStatus,
    /// Meta-information block (window size, buffer offset, buffer size) as
    /// reported through the first 128 bytes of the window.
    meta: OverlayMeta,
}

util::json_struct!(OverlayWindow {
    owba,
    command,
    target_addr,
    burst_bytes,
    program_buffer,
    buffer_valid_bytes,
    status,
    meta,
});

/// The 128-byte meta-information block at the head of the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayMeta {
    /// Total window span in bytes.
    pub window_size: u32,
    /// Offset of the program buffer within the window.
    pub buffer_offset: u32,
    /// Program buffer capacity in bytes.
    pub buffer_size: u32,
}

util::json_struct!(OverlayMeta {
    window_size,
    buffer_offset,
    buffer_size
});

impl Default for OverlayMeta {
    fn default() -> Self {
        OverlayMeta {
            window_size: 0x1000,
            buffer_offset: regs::PROGRAM_BUFFER as u32,
            buffer_size: WORD_BYTES as u32,
        }
    }
}

/// A fully staged program ready for array execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedProgram {
    /// Command code that was staged.
    pub command: u8,
    /// Target module byte address.
    pub target_addr: u64,
    /// Bytes to program.
    pub burst_bytes: u32,
    /// Program-buffer contents.
    pub data: [u8; WORD_BYTES],
}

util::json_struct!(StagedProgram {
    command,
    target_addr,
    burst_bytes,
    data
});

impl OverlayWindow {
    /// Creates a window based at `owba`.
    pub fn new(owba: u64) -> Self {
        OverlayWindow {
            owba,
            command: None,
            target_addr: 0,
            burst_bytes: 0,
            program_buffer: [0; WORD_BYTES],
            buffer_valid_bytes: 0,
            status: OverlayStatus::Ready,
            meta: OverlayMeta::default(),
        }
    }

    /// Current base address.
    pub fn owba(&self) -> u64 {
        self.owba
    }

    /// Moves the window (the host may re-map it while a program runs —
    /// that is exactly the parallelism §II-B highlights).
    pub fn set_owba(&mut self, owba: u64) {
        self.owba = owba;
    }

    /// Meta-information block.
    pub fn meta(&self) -> &OverlayMeta {
        &self.meta
    }

    /// Is `addr` (module byte address) inside the current window?
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.owba && addr < self.owba + self.meta.window_size as u64
    }

    /// Current status-register value.
    pub fn status(&self) -> OverlayStatus {
        self.status
    }

    /// Marks the staged operation in flight / complete (driven by the
    /// device model as array timing elapses).
    pub fn set_status(&mut self, s: OverlayStatus) {
        self.status = s;
    }

    /// Writes a control register at `offset` (relative to OWBA).
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not name a writable register.
    pub fn write_reg(&mut self, offset: u64, value: u64) {
        match offset {
            regs::COMMAND_CODE => self.command = Some(value as u8),
            regs::DATA_ADDRESS => self.target_addr = value,
            regs::MULTI_PURPOSE => self.burst_bytes = value as u32,
            _ => panic!("unwritable overlay register offset {offset:#x}"),
        }
    }

    /// Fills `data` into the program buffer at `offset` bytes in.
    ///
    /// # Panics
    ///
    /// Panics if the write overruns the buffer.
    pub fn fill_program_buffer(&mut self, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= WORD_BYTES,
            "program-buffer overrun: {}+{} > {WORD_BYTES}",
            offset,
            data.len()
        );
        self.program_buffer[offset..offset + data.len()].copy_from_slice(data);
        self.buffer_valid_bytes = self.buffer_valid_bytes.max((offset + data.len()) as u32);
    }

    /// The state a complete §V-B sequence for `target_addr` leaves once
    /// its execute register is written: every staging register cleared
    /// except the row address, and the status `Busy`. A caller that
    /// times the sequence's bursts itself (the controller's posted word
    /// program) lands here without encoding and re-parsing registers.
    pub fn post(&mut self, target_addr: u64) {
        self.command = None;
        self.target_addr = target_addr;
        self.burst_bytes = 0;
        self.program_buffer = [0; WORD_BYTES];
        self.buffer_valid_bytes = 0;
        self.status = OverlayStatus::Busy;
    }

    /// Writes the execute register: consumes the staged state.
    ///
    /// Returns `None` if no command code was staged (a real device would
    /// raise an illegal-command status; callers treat `None` as a protocol
    /// error).
    pub fn execute(&mut self) -> Option<StagedProgram> {
        let command = self.command.take()?;
        let staged = StagedProgram {
            command,
            target_addr: self.target_addr,
            burst_bytes: if self.burst_bytes == 0 {
                self.buffer_valid_bytes
            } else {
                self.burst_bytes
            },
            data: self.program_buffer,
        };
        self.program_buffer = [0; WORD_BYTES];
        self.buffer_valid_bytes = 0;
        self.burst_bytes = 0;
        self.status = OverlayStatus::Busy;
        Some(staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_offsets_match_section_5b() {
        assert_eq!(regs::COMMAND_CODE, 0x80);
        assert_eq!(regs::DATA_ADDRESS, 0x8B);
        assert_eq!(regs::MULTI_PURPOSE, 0x93);
        assert_eq!(regs::EXECUTE, 0xC0);
        assert_eq!(regs::PROGRAM_BUFFER, 0x800);
    }

    #[test]
    fn full_write_sequence_stages_program() {
        let mut ow = OverlayWindow::new(0);
        ow.write_reg(regs::COMMAND_CODE, OverlayCommand::BufferedProgram as u64);
        ow.write_reg(regs::DATA_ADDRESS, 0x1234);
        ow.write_reg(regs::MULTI_PURPOSE, 32);
        ow.fill_program_buffer(0, &[0x11; 32]);
        let p = ow.execute().unwrap();
        assert_eq!(p.command, 0xE9);
        assert_eq!(p.target_addr, 0x1234);
        assert_eq!(p.burst_bytes, 32);
        assert_eq!(p.data, [0x11; 32]);
        assert_eq!(ow.status(), OverlayStatus::Busy);
    }

    #[test]
    fn execute_without_command_is_protocol_error() {
        let mut ow = OverlayWindow::new(0);
        assert!(ow.execute().is_none());
    }

    #[test]
    fn execute_clears_staging() {
        let mut ow = OverlayWindow::new(0);
        ow.write_reg(regs::COMMAND_CODE, 0xE9);
        ow.fill_program_buffer(0, &[9; 8]);
        ow.execute().unwrap();
        // Second execute with nothing staged fails.
        assert!(ow.execute().is_none());
    }

    #[test]
    fn burst_bytes_defaults_to_filled_length() {
        let mut ow = OverlayWindow::new(0);
        ow.write_reg(regs::COMMAND_CODE, 0xE9);
        ow.fill_program_buffer(0, &[1; 16]);
        let p = ow.execute().unwrap();
        assert_eq!(p.burst_bytes, 16);
    }

    #[test]
    fn window_relocation() {
        let mut ow = OverlayWindow::new(0x1000);
        assert!(ow.contains(0x1000));
        assert!(ow.contains(0x1FFF));
        assert!(!ow.contains(0x2000));
        ow.set_owba(0x8000);
        assert!(!ow.contains(0x1000));
        assert!(ow.contains(0x8800));
    }

    #[test]
    fn partial_buffer_fills_compose() {
        let mut ow = OverlayWindow::new(0);
        ow.write_reg(regs::COMMAND_CODE, 0xE9);
        ow.fill_program_buffer(0, &[1; 16]);
        ow.fill_program_buffer(16, &[2; 16]);
        let p = ow.execute().unwrap();
        assert_eq!(&p.data[..16], &[1; 16]);
        assert_eq!(&p.data[16..], &[2; 16]);
    }

    #[test]
    #[should_panic(expected = "program-buffer overrun")]
    fn buffer_overrun_rejected() {
        let mut ow = OverlayWindow::new(0);
        ow.fill_program_buffer(20, &[0; 16]);
    }

    #[test]
    #[should_panic(expected = "unwritable overlay register")]
    fn bad_register_rejected() {
        let mut ow = OverlayWindow::new(0);
        ow.write_reg(0x40, 1);
    }
}
