//! Error type for the Genie framework.

use core::fmt;

use genie_mem::MemError;
use genie_vm::VmError;

use crate::semantics::Semantics;

/// Errors from Genie operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenieError {
    /// Underlying VM error (including unrecoverable application
    /// faults).
    Vm(VmError),
    /// Underlying physical-memory error.
    Mem(MemError),
    /// Output with a system-allocated semantics requires the buffer to
    /// be exactly a moved-in region (paper Section 2.1).
    OutputRequiresMovedInRegion,
    /// The request's semantics requires an application buffer and none
    /// was supplied (or vice versa).
    BufferMismatch(Semantics),
    /// The datagram exceeds the AAL5 maximum payload.
    TooLong(usize),
    /// Zero-length I/O is rejected.
    Empty,
    /// The sender stalled out of credits and retries were exhausted.
    CreditStall,
    /// Header checksum mismatch detected on input.
    ChecksumMismatch,
    /// The switch's routing table has no entry for traffic from
    /// `host` on `vc`.
    NoRoute {
        /// Sending host.
        host: u16,
        /// Virtual circuit.
        vc: u32,
    },
}

impl From<VmError> for GenieError {
    fn from(e: VmError) -> Self {
        GenieError::Vm(e)
    }
}

impl From<MemError> for GenieError {
    fn from(e: MemError) -> Self {
        GenieError::Mem(e)
    }
}

impl fmt::Display for GenieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenieError::Vm(e) => write!(f, "vm: {e}"),
            GenieError::Mem(e) => write!(f, "mem: {e}"),
            GenieError::OutputRequiresMovedInRegion => {
                write!(f, "system-allocated output requires a moved-in region")
            }
            GenieError::BufferMismatch(s) => {
                write!(f, "buffer kind does not match semantics {s}")
            }
            GenieError::TooLong(n) => write!(f, "datagram of {n} bytes exceeds AAL5 maximum"),
            GenieError::Empty => write!(f, "zero-length I/O"),
            GenieError::CreditStall => write!(f, "sender exhausted credits"),
            GenieError::ChecksumMismatch => write!(f, "checksum mismatch"),
            GenieError::NoRoute { host, vc } => write!(f, "no route from host {host} on vc {vc}"),
        }
    }
}

impl std::error::Error for GenieError {}
