"""The file operations of graphdisc.errors."""

import pytest

from graphdisc.errors import WRITE_CHUNK_LINES, ConfigurationError, write_lines


class TestWriteLines:
    def test_each_line_ends_in_a_newline(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(str(path), ["a,b", "", "1"])
        assert path.read_bytes() == b"a,b\n\n1\n"
        write_lines(str(path), [])
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("count", [WRITE_CHUNK_LINES, 2 * WRITE_CHUNK_LINES + 1])
    def test_lines_from_a_generator_in_chunks(self, tmp_path, count):
        path = tmp_path / "out.txt"
        write_lines(str(path), (str(i) for i in range(count)))
        assert path.read_text() == "".join(f"{i}\n" for i in range(count))

    @pytest.mark.parametrize("name, reason", [("nodir/out.txt", "No such file or directory"),
                                              (".", "Is a directory")])
    def test_unwritable_path_names_it(self, tmp_path, name, reason):
        path = str(tmp_path / name)
        with pytest.raises(ConfigurationError) as info:
            write_lines(path, ["a"])
        assert str(info.value) == f"cannot write {path}: {reason}"
