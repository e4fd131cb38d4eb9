//! Instrumented drop-in replacements for `std::sync::atomic` and
//! `UnsafeCell`, the layer the checked crates compile against under
//! `--cfg symtensor_check`.
//!
//! Every type works in two modes, selected per call by whether the
//! calling thread is inside a model execution ([`crate::model::explore`]
//! sets a thread-local context):
//!
//! * **model mode** — the operation becomes a scheduling point and runs
//!   against the explorer's abstract [`crate::mem::Memory`] (store
//!   histories, vector clocks, race metadata);
//! * **passthrough mode** — the operation delegates to the real
//!   `std::sync::atomic` primitive with the requested ordering, so a
//!   `--cfg symtensor_check` build still behaves correctly outside the
//!   explorer (e.g. ordinary unit tests in the same binary).
//!
//! The one deliberate deviation: [`fence`]`(Ordering::Relaxed)` is a
//! no-op instead of a panic. The mutation harness weakens orderings to
//! `Relaxed` one slot at a time, and for a fence slot "weakened to
//! Relaxed" *means* "fence removed".

use std::cell::UnsafeCell;
use std::hash::{DefaultHasher, Hash, Hasher};
pub use std::sync::atomic::Ordering;

use crate::model;

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Memory fence. In model mode this is a first-class fence event in the
/// abstract memory; in passthrough mode it is `std::sync::atomic::fence`
/// except that `Relaxed` is a no-op (see module docs).
pub fn fence(ord: Ordering) {
    if let Some(ctx) = model::current() {
        ctx.op_fence(ord);
    } else if ord != Ordering::Relaxed {
        std::sync::atomic::fence(ord);
    }
}

macro_rules! int_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Instrumented atomic integer (see module docs for the two
        /// modes).
        #[derive(Debug)]
        pub struct $name {
            inner: $std,
            name: &'static str,
        }

        impl $name {
            /// New anonymous atomic (drop-in for the std constructor).
            pub const fn new(v: $prim) -> Self {
                Self { inner: <$std>::new(v), name: stringify!($name) }
            }

            /// New atomic labelled for model traces and race reports.
            pub const fn named(v: $prim, name: &'static str) -> Self {
                Self { inner: <$std>::new(v), name }
            }

            fn addr(&self) -> usize {
                self as *const Self as usize
            }

            fn init(&self) -> u64 {
                // In model mode `inner` is never mutated, so it still
                // holds the construction-time value: the seed for the
                // abstract store history.
                self.inner.load(Ordering::Relaxed) as u64
            }

            /// Atomic load.
            pub fn load(&self, ord: Ordering) -> $prim {
                match model::current() {
                    Some(ctx) => ctx.op_load(self.addr(), self.init(), self.name, ord) as $prim,
                    None => self.inner.load(ord),
                }
            }

            /// Atomic store.
            pub fn store(&self, val: $prim, ord: Ordering) {
                match model::current() {
                    Some(ctx) => ctx.op_store(self.addr(), self.init(), self.name, val as u64, ord),
                    None => self.inner.store(val, ord),
                }
            }

            /// Atomic add; returns the previous value.
            pub fn fetch_add(&self, val: $prim, ord: Ordering) -> $prim {
                match model::current() {
                    Some(ctx) => ctx.op_rmw(self.addr(), self.init(), self.name, ord, |v| {
                        (v as $prim).wrapping_add(val) as u64
                    }) as $prim,
                    None => self.inner.fetch_add(val, ord),
                }
            }

            /// Atomic subtract; returns the previous value.
            pub fn fetch_sub(&self, val: $prim, ord: Ordering) -> $prim {
                match model::current() {
                    Some(ctx) => ctx.op_rmw(self.addr(), self.init(), self.name, ord, |v| {
                        (v as $prim).wrapping_sub(val) as u64
                    }) as $prim,
                    None => self.inner.fetch_sub(val, ord),
                }
            }

            /// Atomic minimum; returns the previous value.
            pub fn fetch_min(&self, val: $prim, ord: Ordering) -> $prim {
                match model::current() {
                    Some(ctx) => ctx.op_rmw(self.addr(), self.init(), self.name, ord, |v| {
                        (v as $prim).min(val) as u64
                    }) as $prim,
                    None => self.inner.fetch_min(val, ord),
                }
            }

            /// Atomic maximum; returns the previous value.
            pub fn fetch_max(&self, val: $prim, ord: Ordering) -> $prim {
                match model::current() {
                    Some(ctx) => ctx.op_rmw(self.addr(), self.init(), self.name, ord, |v| {
                        (v as $prim).max(val) as u64
                    }) as $prim,
                    None => self.inner.fetch_max(val, ord),
                }
            }

            /// Atomic swap; returns the previous value.
            pub fn swap(&self, val: $prim, ord: Ordering) -> $prim {
                match model::current() {
                    Some(ctx) => ctx
                        .op_rmw(self.addr(), self.init(), self.name, ord, |_| val as u64)
                        as $prim,
                    None => self.inner.swap(val, ord),
                }
            }

            /// Compare-and-exchange with std semantics.
            pub fn compare_exchange(
                &self,
                expect: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match model::current() {
                    Some(ctx) => {
                        let (old, ok) = ctx.op_cas(
                            self.addr(),
                            self.init(),
                            self.name,
                            expect as u64,
                            new as u64,
                            success,
                        );
                        if ok {
                            Ok(old as $prim)
                        } else {
                            Err(old as $prim)
                        }
                    }
                    None => self.inner.compare_exchange(expect, new, success, failure),
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0)
            }
        }
    };
}

int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Instrumented atomic boolean (see module docs for the two modes).
#[derive(Debug)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
    name: &'static str,
}

impl AtomicBool {
    /// New anonymous atomic (drop-in for the std constructor).
    pub const fn new(v: bool) -> Self {
        Self { inner: std::sync::atomic::AtomicBool::new(v), name: "AtomicBool" }
    }

    /// New atomic labelled for model traces and race reports.
    pub const fn named(v: bool, name: &'static str) -> Self {
        Self { inner: std::sync::atomic::AtomicBool::new(v), name }
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    fn init(&self) -> u64 {
        self.inner.load(Ordering::Relaxed) as u64
    }

    /// Atomic load.
    pub fn load(&self, ord: Ordering) -> bool {
        match model::current() {
            Some(ctx) => ctx.op_load(self.addr(), self.init(), self.name, ord) != 0,
            None => self.inner.load(ord),
        }
    }

    /// Atomic store.
    pub fn store(&self, val: bool, ord: Ordering) {
        match model::current() {
            Some(ctx) => ctx.op_store(self.addr(), self.init(), self.name, val as u64, ord),
            None => self.inner.store(val, ord),
        }
    }

    /// Atomic swap; returns the previous value.
    pub fn swap(&self, val: bool, ord: Ordering) -> bool {
        match model::current() {
            Some(ctx) => ctx.op_rmw(self.addr(), self.init(), self.name, ord, |_| val as u64) != 0,
            None => self.inner.swap(val, ord),
        }
    }

    /// Compare-and-exchange with std semantics.
    pub fn compare_exchange(
        &self,
        expect: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        match model::current() {
            Some(ctx) => {
                let (old, ok) = ctx.op_cas(
                    self.addr(),
                    self.init(),
                    self.name,
                    expect as u64,
                    new as u64,
                    success,
                );
                if ok {
                    Ok(old != 0)
                } else {
                    Err(old != 0)
                }
            }
            None => self.inner.compare_exchange(expect, new, success, failure),
        }
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

/// Instrumented `UnsafeCell`: non-atomic data whose accesses the
/// vector-clock race detector checks in model mode. The loom-style
/// closure API (`with`/`with_mut`) keeps borrows scoped to one access.
///
/// `Sync` is sound here because model execution is fully serialized
/// (one thread holds the scheduler token at a time) and the race
/// detector rejects any execution in which two threads could touch the
/// cell unsynchronized; passthrough mode is single-threaded use only.
#[derive(Debug)]
pub struct UnsafeCellShim<T> {
    inner: UnsafeCell<T>,
    name: &'static str,
}

// ordering: not an ordering — see the type docs for the Sync argument.
unsafe impl<T: Send> Sync for UnsafeCellShim<T> {}

impl<T: Hash> UnsafeCellShim<T> {
    /// New anonymous cell.
    pub const fn new(v: T) -> Self {
        Self { inner: UnsafeCell::new(v), name: "UnsafeCellShim" }
    }

    /// New cell labelled for race reports.
    pub const fn named(v: T, name: &'static str) -> Self {
        Self { inner: UnsafeCell::new(v), name }
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Shared read access. In model mode the read is race-checked and
    /// the observed value folded into the thread's local-state hash.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        // Token serialization makes the shared reference sound in model
        // mode; passthrough is single-threaded.
        let r = unsafe { &*self.inner.get() };
        if let Some(ctx) = model::current() {
            ctx.op_cell_read(self.addr(), self.name, hash_of(r));
        }
        f(r)
    }

    /// Exclusive write access, race-checked in model mode.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        match model::current() {
            Some(ctx) => {
                let before = unsafe { hash_of(&*self.inner.get()) };
                let cell = ctx.op_cell_write_begin(self.addr(), self.name, before);
                let r = f(unsafe { &mut *self.inner.get() });
                let after = unsafe { hash_of(&*self.inner.get()) };
                ctx.op_cell_write_end(cell, after);
                r
            }
            None => f(unsafe { &mut *self.inner.get() }),
        }
    }
}
