"""The ``paste`` workload: merge lines of files with a delimiter list.

Bug: the delimiter list is unescaped without checking that a character follows
a backslash, so ``paste -d\\ <file>`` (a list consisting of a single
backslash, exactly the paper's example command) walks past the end of the
argument string.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.environment import Environment, simple_environment
from repro.workloads.minic_lib import READ_LINE_SNIPPET

_TEMPLATE = r"""
/* paste: merge corresponding lines of input files with delimiters. */

char DELIMS[16];
int DELIM_COUNT;

@READ_LINE@

int collect_delimiters(char *list) {
    int i = 0;
    int count = 0;
    /* BUG SITE: when the list ends with a backslash the escape handler skips
     * two characters, and this loop keeps reading past the end of the
     * argument string. */
    while (list[i] != 0) {
        if (count >= 15) {
            return count;
        }
        if (list[i] == '\\') {
            char next = list[i + 1];
            if (next == 'n') {
                DELIMS[count] = '\n';
            } else if (next == 't') {
                DELIMS[count] = '\t';
            } else if (next == '0') {
                DELIMS[count] = 0;
            } else {
                DELIMS[count] = next;
            }
            i = i + 2;
        } else {
            DELIMS[count] = list[i];
            i = i + 1;
        }
        count = count + 1;
    }
    return count;
}

int paste_file(char *path, int serial) {
    char line[256];
    int fd = open(path, 0);
    int column = 0;
    int n;
    if (fd < 0) {
        printf("paste: cannot open %s\n", path);
        return 1;
    }
    n = read_line(fd, line, 256);
    while (n > 0) {
        int len = strlen(line);
        if (len > 0 && line[len - 1] == '\n') {
            line[len - 1] = 0;
        }
        if (column > 0) {
            char delim = DELIMS[(column - 1) % DELIM_COUNT];
            if (delim != 0) {
                putchar(delim);
            }
        }
        printf("%s", line);
        column = column + 1;
        n = read_line(fd, line, 256);
    }
    putchar('\n');
    close(fd);
    return 0;
}

int main(int argc, char **argv) {
    int i = 1;
    int serial = 0;
    int status = 0;
    int file_count = 0;
    DELIMS[0] = '\t';
    DELIM_COUNT = 1;
    while (i < argc) {
        char *arg = argv[i];
        if (arg[0] == '-' && arg[1] == 'd') {
            if (arg[2] != 0) {
                DELIM_COUNT = collect_delimiters(arg + 2);
            } else {
                DELIM_COUNT = collect_delimiters(argv[i + 1]);
                i = i + 1;
            }
            if (DELIM_COUNT <= 0) {
                printf("paste: empty delimiter list\n");
                return 1;
            }
            i = i + 1;
            continue;
        }
        if (arg[0] == '-' && arg[1] == 's') {
            serial = 1;
            i = i + 1;
            continue;
        }
        if (paste_file(arg, serial) != 0) {
            status = 1;
        }
        file_count = file_count + 1;
        i = i + 1;
    }
    if (file_count == 0) {
        printf("paste: missing file operand\n");
        return 1;
    }
    return status;
}
"""

SOURCE = _TEMPLATE.replace("@READ_LINE@", READ_LINE_SNIPPET)


def bug_scenario() -> Environment:
    """The paper's command: ``paste -d\\ abcdefghijklmnopqrstuvwxyz``."""

    return simple_environment(["paste", "-d\\", "abcdefghijklmnopqrstuvwxyz"],
                              name="paste-bug")


def big_bug_scenario(lines: int = 24) -> Environment:
    """The trailing-backslash crash *after* pasting a grown input file.

    Arguments are processed left to right, so ``/big.txt`` is pasted (every
    line read through ``read_line``, populating the bitvector and the syscall
    log) before the ``-d\\`` delimiter list triggers the overrun.  Replay must
    reconstruct the whole file walk to reach the crash, which makes the
    search cost scale with the file size — the coreutils analogue of the
    paper's full-size inputs.
    """

    content = b"".join(b"field-%02d\tvalue-%02d\n" % (i, i) for i in range(lines))
    return simple_environment(["paste", "/big.txt", "-d\\"],
                              files={"/big.txt": content},
                              name=f"paste-big{lines}")


def benign_scenario(files: Optional[Dict[str, bytes]] = None) -> Environment:
    """Paste two small files with an explicit delimiter list."""

    files = files or {
        "/a.txt": b"one\ntwo\nthree\n",
        "/b.txt": b"1\n2\n3\n",
    }
    return simple_environment(["paste", "-d,:", "/a.txt", "/b.txt"],
                              files=files, name="paste-ok")
