//! Hermeticity: the library reads `MCM_*` knobs deep inside (fault
//! injection inside `pair_fingerprint`, trace/metrics sinks inside
//! `run_instrumented`, `MCM_STORE`, `MCM_SHARDS`, `MCM_SUPERVISED`, ...),
//! so an ambient shell could turn a cold sweep warm or change the work.
//! The benchmark removes every one of them before it starts a thread,
//! and keeps every store in a directory it owns and removes.

use std::path::{Path, PathBuf};

/// Removes every `MCM_*` variable from the process environment and
/// returns the names removed.
///
/// Must run before the process starts any thread: the environment is
/// process-global and not synchronised.
pub fn scrub() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MCM_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Returns the heap's free memory to the operating system (glibc
/// `malloc_trim`; a no-op elsewhere). The benchmark restarts set-ups
/// and daemons inside one process; without this, memory freed by one
/// incarnation's threads stays resident in their allocator arenas and
/// the peak resident set grows with the number of restarts instead of
/// measuring one incarnation, as a freshly started process would.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and only walks the
        // allocator's own free lists under its own locks; glibc allows
        // calling it at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// A directory removed (with its contents) when dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<root>/<tag>`, replacing anything already there.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn new(root: &Path, tag: &str) -> TempDir {
        let path = root.join(tag);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        TempDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Copies the regular files of `from` (a closed store) into the empty
/// directory `to`, skipping the writer lock.
///
/// # Panics
///
/// Panics when a file cannot be copied.
pub fn copy_store(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("list store directory") {
        let entry = entry.expect("read store directory entry");
        if entry.file_name() == "LOCK" || !entry.path().is_file() {
            continue;
        }
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
    }
}
