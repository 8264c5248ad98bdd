// Crash-safe file output.
//
// Every JSON artifact the tools emit (sh.sweep.v1, bench `--json` results)
// and the checkpoint journal header go through
// atomic_write_file: the bytes land in `<path>.tmp`, are flushed and
// fsync'd, and only then renamed over `path`. A kill at any instant leaves
// either the old file or the new one — never a torn half-write.
#pragma once

#include <string>
#include <string_view>

namespace sh::util {

/// Atomically replaces `path` with `contents` via write-temp + fsync +
/// rename. Returns false (leaving any previous file untouched and cleaning
/// up the temp) if any step fails.
bool atomic_write_file(const std::string& path, std::string_view contents);

/// fsync(2) on an open descriptor; returns false on failure. Exposed so the
/// checkpoint journal can reuse the same durability primitive per record.
bool sync_fd(int fd);

}  // namespace sh::util
